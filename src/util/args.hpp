#pragma once

#include <map>
#include <string>

namespace pfar::util {

/// Tiny command-line flag parser for the examples and bench binaries.
/// Accepts `--key=value` and `--key value`; anything else is ignored.
class Args {
 public:
  Args(int argc, char** argv);

  /// Value of --key, or `fallback` if absent. Throws
  /// std::invalid_argument naming the flag unless the whole value is a
  /// decimal integer in range (so `--max-q=abc` or `--seed 12x` fail
  /// instead of reading as 0 or 12).
  long long get_int(const std::string& key, long long fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool has(const std::string& key) const;

  /// Worker thread count for sweep binaries: --threads N if given, else
  /// the PFAR_THREADS environment variable, else hardware concurrency.
  int threads() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pfar::util
