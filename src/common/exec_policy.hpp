// Per-call execution policy for the codec stack.
//
// Everything the paper's codec computes is a function of (data, dims, eb,
// m, n) — the *execution strategy* (which thread pool carries slab/block
// batches, how many workers it has) is orthogonal to the stream contents,
// with one explicit exception: the EntropyBackend selection below, which
// the stream header flags (kFlagRansEntropy in core/format.hpp).
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

/// Entropy backend for the quantization-code section of a stream, an
/// explicit stream-contents trade selected per call: kHuffman is the
/// seed-faithful default, kRans writes the interleaved two-stream rANS
/// section instead (flagged in the stream header; old readers reject it
/// cleanly as an unknown flag).  Decoders dispatch on the stream itself,
/// never on this field.
enum class EntropyBackend : std::uint8_t { kHuffman = 0, kRans = 1 };

/// Execution strategy for one codec call.  Value type: copy freely; the
/// pool pointer is a non-owning borrow that must outlive the call.
struct ExecPolicy {
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
