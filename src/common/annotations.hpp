// Static-analysis annotations consumed by tools/dklint and Clang
// (docs/STATIC_ANALYSIS.md is the full guide).
//
//  DK_HOT — marks a function as hot-path. dklint's H-checks then statically
//           enforce the EventFn discipline (docs/PERFORMANCE.md) inside it:
//           no heap traffic (DK-H001), no std::function (DK-H002), and only
//           small, explicitly-listed lambda captures (DK-H003). Under any
//           compiler it also expands to [[gnu::hot]] as a codegen hint;
//           under Clang it adds annotate("dk_hot") so the libclang backend
//           finds it in the AST. Put DK_HOT on *definitions* — the textual
//           dklint backend analyzes the body that follows the marker.
#pragma once

#if defined(__clang__)
#define DK_HOT __attribute__((hot, annotate("dk_hot")))
#else
#define DK_HOT __attribute__((hot))
#endif
