// Shared helpers for the benchmark harnesses: standard framework configs
// and paper-reference printing.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/framework.hpp"
#include "workload/fio.hpp"

namespace dk::bench {

/// The block sizes the paper's figures sweep.
inline const std::vector<std::uint64_t> kBlockSizes = {
    4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB};

inline std::string bs_name(std::uint64_t bs) {
  return std::to_string(bs / KiB) + "k";
}

/// Build a framework config for a variant/pool combination with the
/// testbed defaults (2 hosts x 16 OSDs, 10 GbE, straw2 placement).
inline core::FrameworkConfig make_config(core::VariantKind variant,
                                         core::PoolMode mode,
                                         std::uint64_t image_bytes = 256 * MiB) {
  core::FrameworkConfig cfg;
  cfg.variant = variant;
  cfg.pool_mode = mode;
  cfg.image_size = image_bytes;
  return cfg;
}

/// Run a fio spec on a fresh framework instance (own simulator).
inline workload::FioResult run_fio(core::VariantKind variant,
                                   core::PoolMode mode,
                                   const workload::FioJobSpec& spec,
                                   std::uint64_t image_bytes = 256 * MiB) {
  sim::Simulator sim;
  core::Framework fw(sim, make_config(variant, mode, image_bytes));
  workload::FioEngine engine(fw);
  return engine.run(spec);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Paper reference: " << paper_ref << "\n\n";
}

/// Machine-readable appendix: the framework's full metrics registry —
/// per-layer counters/gauges plus the "stage.*" per-hop latency
/// histograms — as one JSON object on a single line (easy to grep/jq).
inline void print_metrics_json(const core::Framework& fw,
                               const std::string& label) {
  std::cout << "--- metrics JSON: " << label << " ---\n";
  std::cout << fw.metrics().to_json() << "\n";
}

/// The Fig-6/7 (replication) or Fig-8/9 (EC) sweep: block sizes x rw modes
/// x variants at qd 32, each cell run once. Both figures of a pair are
/// views of the same runs: MB/s and KIOPS.
struct FigureSweep {
  struct Cell {
    double mbps = 0;
    double iops = 0;
  };
  std::vector<core::VariantKind> variants;
  std::vector<Cell> cells;  // rw mode, then variant, then block size
  // Per-stage latency appendix: the metrics JSON of the first variant's
  // 4 kB random-write cell, so the figures can be decomposed by hop.
  std::string appendix;
};

inline const std::vector<workload::RwMode> kFigureModes = {
    workload::RwMode::seq_read, workload::RwMode::seq_write,
    workload::RwMode::rand_read, workload::RwMode::rand_write};

inline FigureSweep run_figure_sweep(core::PoolMode pool,
                                    std::vector<core::VariantKind> variants) {
  FigureSweep sweep;
  sweep.variants = std::move(variants);
  for (workload::RwMode rw : kFigureModes) {
    for (core::VariantKind v : sweep.variants) {
      for (auto bs : kBlockSizes) {
        workload::FioJobSpec spec;
        spec.rw = rw;
        spec.bs = bs;
        spec.iodepth = 32;
        spec.runtime = ms(300);
        spec.ramp = ms(40);
        spec.seed = 11;
        sim::Simulator sim;
        core::Framework fw(sim, make_config(v, pool, 128 * MiB));
        const workload::FioResult r = workload::FioEngine(fw).run(spec);
        sweep.cells.push_back({r.mbps(), r.iops()});
        if (v == sweep.variants.front() && rw == workload::RwMode::rand_write &&
            bs == 4 * KiB)
          sweep.appendix = fw.metrics().to_json();
      }
    }
  }
  return sweep;
}

/// Print one view of a sweep: a table per rw mode in MB/s or KIOPS, then
/// the metrics appendix.
inline void print_figure(const FigureSweep& sweep, bool kiops) {
  auto cell = sweep.cells.begin();
  for (workload::RwMode rw : kFigureModes) {
    std::vector<std::string> headers{std::string(workload::rw_name(rw)) +
                                     (kiops ? " [KIOPS]" : " [MB/s]")};
    for (auto bs : kBlockSizes) headers.push_back(bs_name(bs));
    TextTable table(headers);
    for (core::VariantKind v : sweep.variants) {
      std::vector<std::string> row{std::string(core::variant_short_name(v))};
      for (std::size_t i = 0; i < kBlockSizes.size(); ++i, ++cell)
        row.push_back(
            TextTable::num(kiops ? cell->iops / 1000.0 : cell->mbps, 1));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "--- metrics JSON: "
            << core::variant_short_name(sweep.variants.front())
            << " rand_write 4k qd32 ---\n"
            << sweep.appendix << "\n";
}

/// Open a new section of bench_output.txt from inside a binary: the blank
/// line and banner tools/run_benches.sh writes between two binaries, for a
/// binary that prints two figures from one sweep.
inline void print_section_banner(const std::string& name) {
  const std::string rule(64, '#');
  std::cout << "\n" << rule << "\n### " << name << "\n" << rule << "\n";
}

}  // namespace dk::bench
