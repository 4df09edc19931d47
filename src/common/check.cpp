#include "common/check.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/metrics.hpp"

namespace dk {
namespace {

// empty -> default behaviour
CheckFailureHandler g_handler;
// nullptr -> global()
MetricsRegistry* g_registry = nullptr;
std::uint64_t g_failures = 0;

/// "src/blk/mq.cpp" -> "mq.cpp": keeps metric names stable across build
/// systems that pass absolute __FILE__ paths.
const char* basename_of(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p)
    if (*p == '/' || *p == '\\') base = p + 1;
  return base;
}

void default_handler(const CheckContext& context) {
  std::fprintf(stderr, "DK_CHECK failed: (%s) at %s:%d%s%s\n",
               context.expression, context.file, context.line,
               context.message.empty() ? "" : " — ",
               context.message.c_str());
  if (context.fatal) std::abort();

  MetricsRegistry* registry =
      g_registry ? g_registry : &MetricsRegistry::global();
  registry->counter("check.violations.total").inc();
  registry
      ->counter(std::string("check.violations.") +
                basename_of(context.file) + ":" +
                std::to_string(context.line))
      .inc();
}

}  // namespace

CheckFailureHandler set_check_failure_handler(CheckFailureHandler handler) {
  return std::exchange(g_handler, std::move(handler));
}

void set_check_metrics_registry(MetricsRegistry* registry) {
  g_registry = registry;
}

std::uint64_t check_failures_total() { return g_failures; }

namespace detail {

void report_check_failure(const CheckContext& context) {
  ++g_failures;
  // A copy: the handler may install another one while it runs.
  const CheckFailureHandler handler = g_handler;
  if (handler) {
    handler(context);
    return;
  }
  default_handler(context);
}

}  // namespace detail
}  // namespace dk
