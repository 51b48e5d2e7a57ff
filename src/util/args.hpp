#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace pfar::util {

/// Tiny command-line flag parser for the examples, tools and bench
/// binaries: `--key=value`, `--key value`, or a bare `--key` (reads "1").
class Args {
 public:
  /// Parses argv against `known`, the flags (without "--") the program
  /// reads. Any other flag (`--help` too, unless listed) or a positional
  /// word throws std::invalid_argument naming the known flags, so a
  /// misspelt flag fails before the program does any work. The getters
  /// throw std::logic_error for a key outside `known`.
  Args(int argc, char** argv, std::initializer_list<const char*> known);

  /// Accepts any flag and ignores positional words: only for the frozen
  /// perfbench/main.cpp, as every other program lists its flags.
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
  using Values = std::map<std::string, std::string>;
  // values_.find(key); in strict mode, std::logic_error for an unlisted key.
  Values::const_iterator lookup(const std::string& key) const;

  Values values_;
  std::string stray_;  // the first positional word, if any
  std::vector<std::string> known_;
  bool strict_ = false;
};

}  // namespace pfar::util
