#include "util/args.hpp"

#include <charconv>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace pfar::util {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = std::string(1, '1');  // bare flag
    }
  }
}

long long Args::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* const end = text.data() + text.size();
  long long value = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    throw std::invalid_argument("--" + key + ": expected an integer, got '" +
                                text + "'");
  }
  return value;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

int Args::threads() const {
  const long long requested = get_int("threads", 0);
  if (requested > 0) return static_cast<int>(requested);
  return default_threads();  // PFAR_THREADS env, then hardware concurrency
}

}  // namespace pfar::util
