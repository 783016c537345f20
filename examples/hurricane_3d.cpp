// 3D example: compress the three hurricane-class variables in parallel
// with the chunked codec, demonstrating multidimensional prediction gains
// over 1D (SZ-1.1-style) prediction and multi-threaded throughput.
//
//   $ ./hurricane_3d [threads]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baselines/sz11.hpp"
#include "common/timer.hpp"
#include "data/generators.hpp"
#include "metrics/metrics.hpp"
#include "parallel/parallel_codec.hpp"

int main(int argc, char** argv) {
  const std::size_t threads =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const char* names[] = {"wind", "pressure", "moisture"};

  std::printf("hurricane-class 3D data (25x125x125), eb_rel = 1e-4, %zu threads\n",
              threads);
  std::printf("%-10s %12s %12s %12s %14s\n", "variable", "CF(sz14)",
              "CF(sz11)", "hit rate", "comp MB/s");

  for (unsigned var = 0; var < 3; ++var) {
    const auto f = sz14::data::hurricane3d(25, 125, 125, 44, var);
    double lo = f.values[0], hi = f.values[0];
    for (float v : f.values) {
      lo = std::min<double>(lo, v);
      hi = std::max<double>(hi, v);
    }
    const double eb = 1e-4 * (hi - lo);
    const std::size_t raw = f.values.size() * sizeof(float);

    sz14::Options opts;
    opts.eb_abs = eb;
    opts.exec.threads = threads;  // worker count rides the policy
    const auto par = sz14::parallel_compress(f.values, f.dims, opts);
    const auto out = sz14::parallel_decompress(par.stream, opts.exec);
    const auto s = sz14::error_summary(f.values, out.data);
    if (s.max_abs_error > eb) {
      std::fprintf(stderr, "BUG: bound violated on %s\n", names[var]);
      return 1;
    }

    sz14::baselines::Sz11 sz11;
    const auto sz11_stream = sz11.compress(f.values, f.dims, eb);

    std::printf("%-10s %12.2f %12.2f %11.1f%% %14.1f\n", names[var],
                sz14::compression_factor(raw, par.stream.size()),
                sz14::compression_factor(raw, sz11_stream.size()),
                100.0 * static_cast<double>(par.predictable) /
                    static_cast<double>(f.values.size()),
                sz14::throughput_mbs(raw, par.seconds));
  }
  std::printf("\n3D prediction sees correlation along all axes; the 1D\n"
              "curve-fitting baseline cannot, hence the CF gap.\n");
  return 0;
}
