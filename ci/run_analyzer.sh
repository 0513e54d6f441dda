#!/usr/bin/env bash
# GCC static analyzer sweep over every src/ translation unit (CI `analyzer`
# job). -fanalyzer runs interprocedural path-sensitive checks (leaks,
# use-after-free, NULL derefs, uninitialized reads) that neither -Wall nor
# clang-tidy's pattern checks cover.
#
# Findings are diffed against the committed suppression file
# ci/analyzer_suppressions.txt: one substring per line, '#' comments.
# A finding matching no suppression line fails the job; a suppression line
# is expected to carry a reason comment next to it.
set -u
cd "$(dirname "$0")/.."

SUPPRESS=ci/analyzer_suppressions.txt
LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

# -Wno-psabi: GCC notes an ABI-compatibility remark for AVX2 vector
# parameter passing in simd_avx2.cpp; it is not an analyzer finding but
# arrives on the same stderr stream.
FLAGS="-std=c++20 -O1 -fanalyzer -Wno-psabi -Isrc"

status=0
for tu in $(git ls-files 'src/*.cpp' 'src/*/*.cpp' 'src/*/*/*.cpp'); do
  # The *_avx2.cpp TUs are built with the wider ISA (see their
  # CMakeLists.txt); without it their intrinsics do not compile.
  isa=""
  case "$tu" in *_avx2.cpp) isa="-mavx2 -mf16c" ;; esac
  if ! g++ $FLAGS $isa -c "$tu" -o /dev/null 2>>"$LOG"; then
    echo "analyzer: $tu failed to compile" >&2
    status=1
  fi
done

# Keep only analyzer diagnostics (one line each), then drop suppressed ones.
grep -E '\[-Wanalyzer-[a-z-]+\]' "$LOG" > "$LOG.findings" || true
if [ -s "$SUPPRESS" ]; then
  grep -vFf <(grep -v '^#' "$SUPPRESS" | grep -v '^$') "$LOG.findings" \
    > "$LOG.unsuppressed" || true
else
  cp "$LOG.findings" "$LOG.unsuppressed"
fi

if [ -s "$LOG.unsuppressed" ]; then
  echo "== unsuppressed -fanalyzer findings ==" >&2
  cat "$LOG.unsuppressed" >&2
  status=1
else
  echo "analyzer: clean ($(git ls-files 'src/*.cpp' 'src/*/*.cpp' | wc -l) TUs)"
fi
rm -f "$LOG.findings" "$LOG.unsuppressed"
exit $status
