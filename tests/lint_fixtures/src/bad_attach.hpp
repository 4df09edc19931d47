// Fixture: DK-C005 observability attach points take the registry by
// reference, not by pointer.
#pragma once

namespace fixture {

class MetricsRegistry;

void attach_metrics(MetricsRegistry* registry);  // expect: DK-C005

}  // namespace fixture
