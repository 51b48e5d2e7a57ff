#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

namespace pfar::util {

/// Names the content of an immutable object, so a memo can key on it in
/// O(1): two equal nonzero stamps mean equal content. Values come from one
/// process-wide counter that never reuses a value; 0 means "no stamp" (an
/// object still being built, or one moved from). A copy keeps the value,
/// because its content is equal; a move hands the value on and zeroes the
/// source, whose content is gone.
class ContentStamp {
 public:
  ContentStamp() = default;
  ContentStamp(const ContentStamp&) = default;
  ContentStamp& operator=(const ContentStamp&) = default;
  ContentStamp(ContentStamp&& other) noexcept
      : value_(std::exchange(other.value_, 0)) {}
  ContentStamp& operator=(ContentStamp&& other) noexcept {
    value_ = std::exchange(other.value_, 0);
    return *this;
  }

  /// Draws a fresh value, never drawn before in this process.
  void renew() {
    static std::atomic<std::uint64_t> counter{0};
    value_ = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

}  // namespace pfar::util
