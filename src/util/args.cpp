#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace pfar::util {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (stray_.empty()) stray_ = arg;
      continue;
    }
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

Args::Args(int argc, char** argv, std::initializer_list<const char*> known)
    : Args(argc, argv) {
  known_.assign(known.begin(), known.end());
  strict_ = true;
  std::string error =
      stray_.empty() ? "" : "unexpected argument '" + stray_ + "'";
  for (const auto& [key, value] : values_) {
    if (std::count(known_.begin(), known_.end(), key) == 0) {
      error = "unknown flag --" + key;
    }
  }
  if (error.empty()) return;
  std::string listing;
  for (const std::string& flag : known_) {
    listing += (listing.empty() ? "--" : ", --") + flag;
  }
  std::fprintf(stderr, "%s: %s; this program reads %s\n", argv[0],
               error.c_str(), listing.empty() ? "no flags" : listing.c_str());
  std::exit(2);
}

Args::Values::const_iterator Args::lookup(const std::string& key) const {
  if (strict_ && std::count(known_.begin(), known_.end(), key) == 0) {
    throw std::logic_error("flag --" + key +
                           " is read but missing from the program's list");
  }
  return values_.find(key);
}

long long Args::get_int(const std::string& key, long long fallback) const {
  const auto it = lookup(key);
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
  const auto it = lookup(key);
  return it == values_.end() ? fallback : it->second;
}

bool Args::has(const std::string& key) const {
  return lookup(key) != values_.end();
}

int Args::threads() const {
  const long long requested = get_int("threads", 0);
  if (requested > 0) return static_cast<int>(requested);
  return default_threads();  // PFAR_THREADS env, then hardware concurrency
}

}  // namespace pfar::util
