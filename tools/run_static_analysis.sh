#!/usr/bin/env bash
# Static-analysis driver: the in-tree pfar_lint rule engine, clang-tidy
# (using the compile database the build exports) and cppcheck, the latter
# two under the configs committed at the repo root.
#
# Usage: tools/run_static_analysis.sh [--full] [BUILD_DIR]   (default: build)
#
#   --full   also lint tests/ and bench/ translation units with clang-tidy
#            and cppcheck (the default run covers src/, tools/ and the
#            test oracle in tests/oracle/ only, to keep the loop fast;
#            pfar_lint always covers the full tree via the compile
#            database).
#
# External tools that are not installed are skipped with a notice instead
# of failing, so the script is safe to run in minimal containers; CI
# installs them and therefore enforces them. pfar_lint is built by the
# repo itself and is always enforced. Exit status is nonzero iff a tool
# that ran reported a finding.

set -u

full=0
build_dir_arg=""
for arg in "$@"; do
  case "$arg" in
    --full) full=1 ;;
    --help|-h)
      sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    -*)
      echo "error: unknown option '$arg' (try --help)" >&2
      exit 2
      ;;
    *)
      if [ -n "$build_dir_arg" ]; then
        echo "error: more than one BUILD_DIR argument" >&2
        exit 2
      fi
      build_dir_arg=$arg
      ;;
  esac
done

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${build_dir_arg:-"$repo_root/build"}
# A relative BUILD_DIR is resolved against the repo root, not the CWD.
if [ ! -d "$build_dir" ] && [ -n "$build_dir_arg" ] \
    && [ -d "$repo_root/$build_dir_arg" ]; then
  build_dir="$repo_root/$build_dir_arg"
fi
if [ ! -d "$build_dir" ]; then
  echo "error: build directory '$build_dir' does not exist." >&2
  echo "       Configure and build first: cmake -S . -B build && cmake --build build" >&2
  exit 2
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "error: no compile_commands.json in '$build_dir'." >&2
  echo "       Configure first (CMAKE_EXPORT_COMPILE_COMMANDS is on by default):" >&2
  echo "       cmake -S . -B build" >&2
  exit 2
fi

status=0
cd "$repo_root"

# Scope for the external tools. pfar_lint derives its own file set from the
# compile database (every TU plus transitively included first-party
# headers), so it is unaffected by --full. tests/oracle is in the default
# scope: the reference loop and its struct fabric left src/ for it, and
# pfar_audit links it.
scope="src tools tests/oracle"
if [ "$full" = 1 ]; then
  scope="src tools tests bench"
fi

# pfar_lint: the project's own determinism/contract/concurrency rule
# engine (tools/pfar_lint.cpp). Built by every configure; if the binary is
# missing the build is stale, which is an error rather than a skip.
pfar_lint="$build_dir/tools/pfar_lint"
if [ -x "$pfar_lint" ]; then
  echo "== pfar_lint (compile database, allowlist tools/pfar_lint_allowlist.txt)"
  if ! "$pfar_lint" --compile-db "$build_dir/compile_commands.json" \
      --allowlist tools/pfar_lint_allowlist.txt; then
    echo "pfar_lint: findings above" >&2
    status=1
  fi
else
  echo "error: $pfar_lint not built; run: cmake --build $build_dir --target pfar_lint" >&2
  status=1
fi

# clang-tidy over the first-party translation units in scope (tests and
# benches only with --full, to keep the default run fast).
if command -v clang-tidy >/dev/null 2>&1; then
  # shellcheck disable=SC2086
  sources=$(find $scope -name '*.cpp' -not -path '*lint_fixtures*' | sort)
  echo "== clang-tidy ($(echo "$sources" | wc -l) files, config .clang-tidy)"
  # shellcheck disable=SC2086
  if ! clang-tidy -p "$build_dir" --quiet $sources; then
    echo "clang-tidy: findings above" >&2
    status=1
  fi
else
  echo "== clang-tidy not installed; skipping (CI runs it)"
fi

if command -v cppcheck >/dev/null 2>&1; then
  echo "== cppcheck (config .cppcheck-suppressions)"
  # shellcheck disable=SC2086
  if ! cppcheck --enable=warning,performance,portability \
      --suppressions-list=.cppcheck-suppressions \
      --inline-suppr \
      --error-exitcode=1 \
      --std=c++20 \
      --quiet \
      -i tests/lint_fixtures \
      -I src \
      -I tests \
      $scope; then
    echo "cppcheck: findings above" >&2
    status=1
  fi
else
  echo "== cppcheck not installed; skipping (CI runs it)"
fi

exit $status
