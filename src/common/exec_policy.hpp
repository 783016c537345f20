// Per-call execution policy for the codec stack.
//
// Everything the paper's codec computes is a function of (data, dims, eb,
// m, n) — the *execution strategy* (which compress walk runs, which thread
// pool carries slab/block batches) is orthogonal to the stream contents,
// with two explicit exceptions: kTurbo's reciprocal quantizer, which
// writes a different but equally valid stream (no flag: it decodes through
// the one decoder), and the EntropyBackend selection below, which the
// stream header flags.
// ExecPolicy makes that strategy an explicit per-call value carried on
// Options (compress side) or passed to parallel_decompress, so many
// concurrent calls with heterogeneous settings coexist in one process: no
// layer below the public API reads process-global mutable state to decide
// how to execute.  Every codec call owns its working buffers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sz14 {

class ThreadPool;

/// Compress-side hot path.  Both modes run the same walks — the 1-layer
/// rank-2/3 anti-diagonal kernel, the row wavefront for 2+ layers
/// (core/kernels.hpp) — and decode through the same exact decoder; they
/// differ only in the quantizer's divide.
enum class HotPathMode {
  kFast,   // exact divide: streams bit-identical to the generic walk
  kTurbo,  // reciprocal-multiply quantization: bound-conformant
           // (|x - x'| <= eb) but not bit-identical to kFast streams
};

/// Entropy backend for the quantization-code section of a stream.  Like
/// kTurbo's reciprocal quantizer, this is an explicit stream-contents
/// trade selected per call: kHuffman is the seed-faithful default, kRans
/// writes the interleaved two-stream rANS section instead (flagged in the
/// stream header; old readers reject it cleanly as an unknown flag).
/// Decoders dispatch on the stream itself, never on this field.
enum class EntropyBackend : std::uint8_t { kHuffman = 0, kRans = 1 };

/// Execution strategy for one codec call.  Value type: copy freely; the
/// pool pointer is a non-owning borrow that must outlive the call.
struct ExecPolicy {
  /// Compress-side hot path (encode side only — decode is exact in every
  /// mode).
  HotPathMode mode = HotPathMode::kFast;
  /// Pool for the threaded entry points (parallel codec, archive writer).
  /// Null: the callee builds a private pool of `threads` workers.
  ThreadPool* pool = nullptr;
  /// Worker count when `pool` is null (0 = hardware_concurrency).
  std::size_t threads = 0;
  /// Entropy coder for the quantization-code section (encode side only —
  /// decode follows the stream).
  EntropyBackend entropy = EntropyBackend::kHuffman;
};

}  // namespace sz14
