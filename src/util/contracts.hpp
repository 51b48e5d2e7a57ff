#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

/// Contract layer: PFAR_REQUIRE / PFAR_ENSURE / PFAR_INVARIANT.
///
/// Two compile-time levels, selected with -DPFAR_CHECKS_LEVEL=<1|2> (the
/// CMake cache variable PFAR_CHECKS=release|audit maps onto it):
///
///   1 (release) - PFAR_REQUIRE (preconditions) and PFAR_ENSURE
///                 (postconditions) are live; PFAR_INVARIANT is compiled
///                 out. This is the default: cheap boundary checks stay on
///                 in production builds.
///   2 (audit)   - all three are live. PFAR_INVARIANT guards the expensive
///                 whole-structure checks (re-validating a spanning tree,
///                 recomputing congestion, field-axiom sweeps) that only an
///                 audit build should pay for.
///
/// A failing contract produces a structured message:
///
///   pfar contract violation: REQUIRE(q >= 2)
///     at src/gf/field.cpp:41
///     q = 1
///
/// then calls the installed failure handler (default: print to stderr and
/// abort). Tests install a throwing handler via ScopedThrowHandler and
/// assert on the ContractViolation message instead of dying.
///
/// Each macro takes the condition plus up to eight optional operand
/// expressions; operands are stringified and formatted `name = value` in
/// the failure message (values print via operator<< when available).

#ifndef PFAR_CHECKS_LEVEL
#define PFAR_CHECKS_LEVEL 1
#endif
#if PFAR_CHECKS_LEVEL != 1 && PFAR_CHECKS_LEVEL != 2
#error "PFAR_CHECKS_LEVEL must be 1 (release) or 2 (audit)"
#endif

namespace pfar::util::contracts {

/// Thrown by the test handler installed with ScopedThrowHandler.
class ContractViolation : public std::runtime_error {
 public:
  ContractViolation(std::string kind, std::string expr, std::string message)
      : std::runtime_error(message),
        kind_(std::move(kind)),
        expr_(std::move(expr)) {}

  /// "REQUIRE", "ENSURE" or "INVARIANT".
  const std::string& kind() const { return kind_; }
  /// The stringified condition.
  const std::string& expr() const { return expr_; }

 private:
  std::string kind_;
  std::string expr_;
};

/// Failure hook. `message` is the fully formatted multi-line report. A
/// handler that returns (rather than throwing or exiting) falls through to
/// std::abort so a violated contract can never be silently resumed.
using FailHandler = void (*)(const char* kind, const char* expr,
                             const std::string& message);

/// Install a new handler; returns the previous one. Pass nullptr to restore
/// the default abort handler.
FailHandler set_fail_handler(FailHandler handler);

/// Format + dispatch a violation; never returns.
[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& operands);

/// RAII: while alive, contract violations throw ContractViolation instead
/// of aborting. Not reentrant across threads; meant for single-threaded
/// test bodies.
class ScopedThrowHandler {
 public:
  ScopedThrowHandler();
  ~ScopedThrowHandler();
  ScopedThrowHandler(const ScopedThrowHandler&) = delete;
  ScopedThrowHandler& operator=(const ScopedThrowHandler&) = delete;

 private:
  FailHandler previous_;
};

template <typename T, typename = void>
struct is_streamable : std::false_type {};
template <typename T>
struct is_streamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                             << std::declval<const T&>())>>
    : std::true_type {};

/// Accumulates `name = value` operand lines for a failure message.
struct Detail {
  std::string text;

  template <typename T>
  Detail& add(const char* name, const T& value) {
    text += "\n  ";
    text += name;
    text += " = ";
    if constexpr (is_streamable<T>::value) {
      std::ostringstream os;
      os << value;
      text += os.str();
    } else {
      text += "<unprintable>";
    }
    return *this;
  }
};

/// Swallows the operand list of a compiled-out PFAR_INVARIANT without
/// evaluating anything (the call itself sits under `if (false)`).
template <typename... Ts>
inline void ignore(const Ts&...) {}

}  // namespace pfar::util::contracts

// Map each stringified operand expression to a Detail::add chain link.
// FOR_EACH supports 0..8 operands; extend the dispatch if a call site ever
// needs more.
#define PFAR_DETAIL_0()
#define PFAR_DETAIL_1(a) .add(#a, (a))
#define PFAR_DETAIL_2(a, b) PFAR_DETAIL_1(a) PFAR_DETAIL_1(b)
#define PFAR_DETAIL_3(a, b, c) PFAR_DETAIL_2(a, b) PFAR_DETAIL_1(c)
#define PFAR_DETAIL_4(a, b, c, d) PFAR_DETAIL_3(a, b, c) PFAR_DETAIL_1(d)
#define PFAR_DETAIL_5(a, b, c, d, e) \
  PFAR_DETAIL_4(a, b, c, d) PFAR_DETAIL_1(e)
#define PFAR_DETAIL_6(a, b, c, d, e, f) \
  PFAR_DETAIL_5(a, b, c, d, e) PFAR_DETAIL_1(f)
#define PFAR_DETAIL_7(a, b, c, d, e, f, g) \
  PFAR_DETAIL_6(a, b, c, d, e, f) PFAR_DETAIL_1(g)
#define PFAR_DETAIL_8(a, b, c, d, e, f, g, h) \
  PFAR_DETAIL_7(a, b, c, d, e, f, g) PFAR_DETAIL_1(h)
#define PFAR_DETAIL_PICK(_0, _1, _2, _3, _4, _5, _6, _7, _8, name, ...) name
#define PFAR_DETAIL_CHAIN(...)                                            \
  PFAR_DETAIL_PICK(_0 __VA_OPT__(, ) __VA_ARGS__, PFAR_DETAIL_8,          \
                   PFAR_DETAIL_7, PFAR_DETAIL_6, PFAR_DETAIL_5,           \
                   PFAR_DETAIL_4, PFAR_DETAIL_3, PFAR_DETAIL_2,           \
                   PFAR_DETAIL_1, PFAR_DETAIL_0)                          \
  (__VA_ARGS__)

#define PFAR_CONTRACT_LIVE(kind, cond, ...)                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::pfar::util::contracts::fail(                                      \
          kind, #cond, __FILE__, __LINE__,                                \
          ::pfar::util::contracts::Detail{}                               \
              PFAR_DETAIL_CHAIN(__VA_ARGS__)                              \
                  .text);                                                 \
    }                                                                     \
  } while (0)

// Compiled-out variant: everything stays type-checked but dead; GCC folds
// the whole statement away at -O0 already, and nothing is evaluated.
#define PFAR_CONTRACT_DEAD(kind, cond, ...)                               \
  do {                                                                    \
    if (false) {                                                          \
      static_cast<void>(cond);                                            \
      ::pfar::util::contracts::ignore(__VA_ARGS__);                       \
    }                                                                     \
  } while (0)

#define PFAR_REQUIRE(cond, ...) PFAR_CONTRACT_LIVE("REQUIRE", cond, __VA_ARGS__)
#define PFAR_ENSURE(cond, ...) PFAR_CONTRACT_LIVE("ENSURE", cond, __VA_ARGS__)

#if PFAR_CHECKS_LEVEL >= 2
#define PFAR_INVARIANT(cond, ...) \
  PFAR_CONTRACT_LIVE("INVARIANT", cond, __VA_ARGS__)
#else
#define PFAR_INVARIANT(cond, ...) \
  PFAR_CONTRACT_DEAD("INVARIANT", cond, __VA_ARGS__)
#endif

/// True when PFAR_INVARIANT is live; lets call sites skip building the
/// inputs of an expensive audit check entirely.
#define PFAR_AUDIT_ENABLED (PFAR_CHECKS_LEVEL >= 2)
