// Snapshot workflow example: the shape real HPC output takes (paper
// Sec. II — snapshots holding many variables, each with its own accuracy
// requirement).  Writes three variables into one `.sza` archive, each
// under its own bound:
//   * two smooth fields under value-range-based bounds,
//   * a diagnostics field stored in double precision under a tight
//     absolute bound,
// then compresses a 14-decade field (the CDNUMC-style case) under a
// POINTWISE relative bound — the mode that makes huge-dynamic-range data
// compressible.
//
//   $ ./snapshot_workflow
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "core/compressor.hpp"
#include "core/format.hpp"
#include "core/pointwise.hpp"
#include "data/generators.hpp"
#include "metrics/metrics.hpp"

namespace {

template <typename T>
double max_abs_error(const std::vector<T>& a, const std::vector<T>& b) {
  double err = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, std::fabs(static_cast<double>(a[i]) -
                                  static_cast<double>(b[i])));
  return err;
}

/// The absolute bound a value-range-relative bound `eb_rel` resolves to.
double bound_from_rel(const std::vector<float>& values, double eb_rel) {
  sz14::Options opts;
  opts.eb_rel = eb_rel;
  return sz14::resolve_error_bound_for(std::span<const float>(values), opts);
}

}  // namespace

int main() {
  using namespace sz14;
  using archive::ArchiveReader;
  using archive::ArchiveWriter;

  const auto temp = data::climate2d(180, 360, 1);
  const auto humidity = data::climate2d(180, 360, 2);
  const auto cdnumc = data::huge_range2d(180, 360);
  std::vector<double> energy(temp.values.size());
  for (std::size_t i = 0; i < energy.size(); ++i)
    energy[i] = 1.0e5 + 0.25 * static_cast<double>(temp.values[i]) +
                1e-7 * std::sin(static_cast<double>(i));

  // --- variables with range-relative / absolute bounds go in an archive.
  const double eb_t = bound_from_rel(temp.values, 1e-4);
  const double eb_q = bound_from_rel(humidity.values, 1e-3);
  const double eb_e = 1e-6;  // far below float precision at this magnitude
  const Dims block{60, 120};
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("snapshot_workflow_" + std::to_string(::getpid()) + ".sza"))
          .string();
  {
    ArchiveWriter w(path);
    w.append_field("T", std::span<const float>(temp.values), temp.dims, block,
                   "sz14", eb_t);
    w.append_field("Q", std::span<const float>(humidity.values),
                   humidity.dims, block, "sz14", eb_q);
    w.append_field("ENERGY", std::span<const double>(energy), temp.dims,
                   block, "sz14", eb_e);
    w.finish();
  }

  ArchiveReader r(path);
  std::printf("archive: %ju bytes for %zu variables\n",
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)),
              r.fields().size());
  for (const auto& f : r.fields())
    std::printf("  %-8s %-10s %s  eb=%.3g  %ju bytes\n", f.name.c_str(),
                f.dims.to_string().c_str(),
                f.dtype == kDtypeF64 ? "f64" : "f32", f.eb_abs,
                static_cast<std::uintmax_t>(f.payload_bytes()));

  // Every variable must meet its own bound.
  const double err_t = max_abs_error(r.read<float>("T"), temp.values);
  const double err_q = max_abs_error(r.read<float>("Q"), humidity.values);
  const double err_e = max_abs_error(r.read<double>("ENERGY"), energy);
  std::printf("T      max abs error: %.3g (bound %.3g)\n", err_t, eb_t);
  std::printf("Q      max abs error: %.3g (bound %.3g)\n", err_q, eb_q);
  std::printf("ENERGY max abs error: %.3g (bound %.3g)\n\n", err_e, eb_e);
  std::filesystem::remove(path);
  const bool bounds_met = err_t <= eb_t && err_q <= eb_q && err_e <= eb_e;

  // --- the huge-range variable needs a pointwise-relative bound.
  const double pwrel = 1e-3;
  const auto pw_stream =
      compress_pointwise_rel(cdnumc.values, cdnumc.dims, pwrel);
  const auto pw_out = decompress_pointwise_rel(pw_stream);
  double max_rel = 0;
  for (std::size_t i = 0; i < cdnumc.values.size(); ++i)
    if (cdnumc.values[i] != 0.0f)
      max_rel = std::max(
          max_rel, std::fabs(static_cast<double>(pw_out.data[i]) -
                             static_cast<double>(cdnumc.values[i])) /
                       std::fabs(static_cast<double>(cdnumc.values[i])));
  std::printf("CDNUMC-style field (values 1e-3..1e11), pointwise rel %.0e:\n",
              pwrel);
  std::printf("  CF %.2f, max pointwise rel error %.3g\n",
              compression_factor(cdnumc.values.size() * 4, pw_stream.size()),
              max_rel);
  return (bounds_met && max_rel <= pwrel) ? 0 : 1;
}
