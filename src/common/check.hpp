// Invariant-check macros for the I/O pipeline.
//
// DK_CHECK(cond) evaluates `cond` in every build type. On failure it reports
// a CheckContext {expression, file, line, streamed message} to the installed
// failure handler. The default handler prints the context to stderr and then
//   * aborts in debug builds (NDEBUG not defined) — a violated invariant in
//     the model is a modeling bug and must not limp on;
//   * counts the violation in release builds under "check.violations.total"
//     and "check.violations.<file>:<line>" in the check metrics registry
//     (MetricsRegistry::global() unless overridden) and continues, so
//     long-running production binaries surface corruption instead of
//     silently compiling the checks out.
//
// DK_DCHECK(cond) is for hot-path checks: identical to DK_CHECK in debug
// builds, compiled out entirely (condition not evaluated) in release.
//
// Both macros accept a streamed message:
//   DK_CHECK(head <= tail) << "ring " << id << " head overran tail";
//
// Tests (and the PipelineValidator violation-injection tests) install a
// capturing handler via ScopedCheckFailureHandler so deliberate failures can
// be asserted on without killing the process in either build type.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace dk {

class MetricsRegistry;

/// Everything known about one failed check, handed to the failure handler.
struct CheckContext {
  const char* expression;  // stringified condition
  const char* file;        // __FILE__ of the check site
  int line;                // __LINE__ of the check site
  std::string message;     // streamed message (may be empty)
  bool fatal;              // true in debug builds (default handler aborts)
};

// dklint: allow(DK-C006) — copyable, capturing, set by tests, off event paths
using CheckFailureHandler = std::function<void(const CheckContext&)>;

/// Install a process-wide failure handler; nullptr restores the default.
/// Returns the previously installed handler (empty if default).
CheckFailureHandler set_check_failure_handler(CheckFailureHandler handler);

/// Registry the default handler counts release-mode violations in.
/// Defaults to MetricsRegistry::global(); pass nullptr to restore that.
void set_check_metrics_registry(MetricsRegistry* registry);

/// Total check failures reported process-wide (any handler, any registry).
std::uint64_t check_failures_total();

/// RAII handler swap for tests that inject violations deliberately.
class ScopedCheckFailureHandler {
 public:
  explicit ScopedCheckFailureHandler(CheckFailureHandler handler)
      : previous_(set_check_failure_handler(std::move(handler))) {}
  ~ScopedCheckFailureHandler() { set_check_failure_handler(previous_); }

  ScopedCheckFailureHandler(const ScopedCheckFailureHandler&) = delete;
  ScopedCheckFailureHandler& operator=(const ScopedCheckFailureHandler&) =
      delete;

 private:
  CheckFailureHandler previous_;
};

namespace detail {

/// Routes a failed check to the installed handler (or the default one).
void report_check_failure(const CheckContext& context);

/// Collects the streamed message; the destructor fires the report.
class CheckStream {
 public:
  CheckStream(const char* expression, const char* file, int line, bool fatal)
      : expression_(expression), file_(file), line_(line), fatal_(fatal) {}
  ~CheckStream() {
    report_check_failure(
        CheckContext{expression_, file_, line_, stream_.str(), fatal_});
  }

  CheckStream(const CheckStream&) = delete;
  CheckStream& operator=(const CheckStream&) = delete;

  template <typename T>
  CheckStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* expression_;
  const char* file_;
  int line_;
  bool fatal_;
  std::ostringstream stream_;
};

/// `&` binds looser than `<<`, so the whole streamed chain is evaluated
/// before the stream is voided into the ternary's `void` arm.
struct CheckVoidify {
  // const& binds both a bare temporary (no message) and the lvalue a
  // `<< ...` chain returns; the report fires in ~CheckStream either way.
  void operator&(const CheckStream&) {}
};

/// Swallows `<<` chains of disabled DK_DCHECKs without evaluating operands.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace detail
}  // namespace dk

#if defined(NDEBUG)
#define DK_CHECK_FATAL_ false
#else
#define DK_CHECK_FATAL_ true
#endif

#define DK_CHECK(condition)                                         \
  (condition) ? (void)0                                             \
              : ::dk::detail::CheckVoidify() &                      \
                    ::dk::detail::CheckStream(#condition, __FILE__, \
                                              __LINE__, DK_CHECK_FATAL_)

#if defined(NDEBUG)
// Never evaluates `condition`; `false &&` keeps operands odr-used so release
// builds emit no unused-variable warnings, while the optimizer drops it all.
#define DK_DCHECK(condition) \
  while (false && (condition)) ::dk::detail::NullStream()
#else
#define DK_DCHECK(condition) DK_CHECK(condition)
#endif
