// Calibration constants for the end-to-end timing model.
//
// Every host-side stage cost lives here, as a constexpr constant with its
// provenance: the paper's numbers come from one testbed, so no run varies
// them. Two kinds of constants exist:
//   * micro-architecture constants with published/first-principles values
//     (syscall cost, context-switch cost, PCIe rates, kernel clocks), and
//   * per-framework residuals calibrated so the end-to-end simulation lands
//     near the paper's measured latencies (Table II) and throughput ratios
//     (Figs 3-4, 6-9). Residuals absorb what the paper measures but does
//     not decompose (HLS shell inefficiency, daemon scheduling, etc.).
//
// The *shape* of every result (who wins, by what factor, where block-size
// crossovers fall) is emergent from the stage structure — the variants
// differ only in which stages they execute and how many copies/switches
// they pay — not from per-result constants.
#pragma once

#include "common/units.hpp"

namespace dk::core {

// --- Generic kernel-path costs (host CPU) ---------------------------------
constexpr Nanos kSyscall = us(1.2);  // syscall entry/exit + dispatch
// user<->kernel switch incl. cache churn
constexpr Nanos kContextSwitch = us(1.5);
// user<->kernel buffer copy bandwidth (memcpy w/ cold pages; calibrated so
// D2's 5-copy path saturates ~340 MB/s at 128 kB, per Fig 6)
constexpr double kCopyBps = 1.9e9;
constexpr Nanos kBlkLayer = us(1.0);     // blk-mq request lifecycle CPU
constexpr Nanos kMqScheduler = us(1.5);  // MQ elevator work (skipped by DMQ)
// interrupt + wakeup (non-polled modes)
constexpr Nanos kIrqCompletion = us(3.0);

// --- Legacy user-space stack (DeLiBA-1/2 and the D2 software baseline) ----
constexpr Nanos kNbdLoop = us(4.0);  // NBD daemon socket round trip per I/O
constexpr Nanos kLibrbd = us(5.0);   // user-space librbd/librados processing

// --- DeLiBA-K kernel stack ------------------------------------------------
constexpr Nanos kUringSubmit = us(0.6);    // SQE prep + ring publish
constexpr Nanos kUringComplete = us(0.5);  // CQE reap
constexpr Nanos kUifd = us(3.0);  // UIFD driver + kernel RBD processing

// --- Host (software) network stack, used when TCP is NOT offloaded --------
constexpr Nanos kHostTcpPerMsg = us(4.0);  // kernel TCP/IP per-message CPU
constexpr double kHostTcpBps = 1.1e9;      // per-byte protocol/data-touch cost

// --- Software CRUSH placement ----------------------------------------------
// Table I reports per-kernel profiled execution times (55/48/... us) from
// instrumented ceph-kernel runs; the un-instrumented per-op cost is lower
// (profiling inflates hot loops). Scale applied to Table I sw times.
constexpr double kSwCrushScale = 0.6;

// --- Per-framework residuals (calibrated, see header comment) -------------
constexpr Nanos kResidualD1 = us(21);  // D1: HLS shell + per-query PCIe hops
constexpr Nanos kResidualD2 = us(2);   // D2: HLS TCP stack + daemon overhead
constexpr Nanos kResidualD3 = us(3);   // DeLiBA-K: Verilog stack, minimal
constexpr Nanos kResidualSw = us(3);   // software baselines

// Time the host worker stays occupied per I/O AFTER the request has been
// forwarded (deferred bookkeeping, copy-back, daemon scheduling). This is
// why the legacy stacks' throughput ceiling is lower than 1/latency:
// the NBD daemon serializes post-processing on its single event loop.
constexpr Nanos kOccupancyExtraD1 = us(80);
constexpr Nanos kOccupancyExtraD2 = us(60);
constexpr Nanos kOccupancyExtraSw = us(70);
constexpr Nanos kOccupancyExtraD3 = us(16);
// DeLiBA-K's occupancy also scales with bytes moved: QDMA descriptor
// management, DMA-completion handling, and offload-TCP flow-control
// pacing are per-byte (calibrated to Fig 6's 145 MB/s @4k .. 680 MB/s
// @128k envelope).
constexpr double kOccupancyBpsD3 = 0.75e9;

}  // namespace dk::core
