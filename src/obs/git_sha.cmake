# Build step behind obs::provenance()'s git_sha: writes OUT, a C++ source
# defining pcnn::obs::kBuildGitSha, from the git checkout holding SRC. The
# value is the short HEAD SHA, suffixed "-dirty" when tracked files differ
# from HEAD, or "unknown" without git (GIT empty) or a checkout. OUT is
# rewritten only when the value changes, so an unchanged tree recompiles
# nothing.
#
#   cmake -DGIT=<git or empty> -DSRC=<dir> -DOUT=<file.cpp> -P git_sha.cmake
set(sha "unknown")
if(GIT)
  execute_process(
    COMMAND "${GIT}" -C "${SRC}" rev-parse --short HEAD
    RESULT_VARIABLE rc OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  if(rc EQUAL 0 AND head)
    set(sha "${head}")
    # --no-optional-locks: a build must not take .git/index.lock from a
    # concurrent git command.
    execute_process(
      COMMAND "${GIT}" -C "${SRC}" --no-optional-locks status --porcelain
              --untracked-files=no
      RESULT_VARIABLE rc OUTPUT_VARIABLE changes ERROR_QUIET)
    if(NOT rc EQUAL 0 OR changes)
      string(APPEND sha "-dirty")
    endif()
  endif()
endif()

set(content "// Generated by src/obs/git_sha.cmake; do not edit.
namespace pcnn::obs {
extern const char kBuildGitSha[];
const char kBuildGitSha[] = \"${sha}\";
}  // namespace pcnn::obs
")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
