// DK_HOT marks a hot-path function definition (docs/STATIC_ANALYSIS.md):
// dklint rejects heap traffic (DK-H001) and wide or implicit lambda captures
// (DK-H003) in its body, keeping the EventFn discipline (docs/PERFORMANCE.md).
// It also expands to [[gnu::hot]] as a codegen hint.
#pragma once

#define DK_HOT __attribute__((hot))
