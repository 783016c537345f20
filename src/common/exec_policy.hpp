// Per-call execution policy for the codec stack.
//
// Everything the paper's codec computes is a function of (data, dims, eb,
// m, n) — the *execution strategy* (which compress walk runs, which thread
// pool carries slab/block batches, which scratch arena supplies working
// buffers) is orthogonal to the stream contents, with two explicit,
// flagged-in-the-stream exceptions: kTurbo's reciprocal quantizer and the
// EntropyBackend selection below.
// ExecPolicy makes that strategy an explicit per-call value carried on
// Options (compress side) or passed to the decompress entry points, so
// many concurrent calls with heterogeneous settings coexist in one
// process: no layer below the public API reads process-global mutable
// state to decide how to execute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sz14 {

class ThreadPool;

/// Compress-side hot path.  Both modes run the dimension-specialized
/// wavefront walks (core/kernels.hpp) and decode through the same exact
/// decoder; they differ only in the quantizer's divide.
enum class HotPathMode {
  kFast,   // exact divide: streams bit-identical to the generic walk
  kTurbo,  // reciprocal-multiply quantization: bound-conformant
           // (|x - x'| <= eb) but not bit-identical to kFast streams
};

/// Reusable working-buffer arena for repeated codec calls (batch
/// workloads: archive appends, slab pipelines, bench reps).  Buffers only
/// ever grow, so steady-state calls allocate nothing; contents are
/// scratch — reuse never changes a single output byte (enforced by
/// tests/test_exec_policy.cpp).
///
/// One CodecScratch may be shared by any set of threads — pool workers,
/// plain std::threads, several pools at once: local() keys the buffer set
/// by thread identity (the per-call slot lookup is the only synchronized
/// step; the buffers themselves are strictly thread-private), so sharing
/// an arena can never race.  Slots are never evicted (thread ids can be
/// reused, so a slot cannot safely be freed on thread exit): size an
/// arena's lifetime to a bounded set of threads — a pool's workers, a
/// writer's batches, a bench loop — not to an unbounded stream of
/// short-lived threads, or its footprint grows with every new thread id.
class CodecScratch {
 public:
  /// One thread's buffer set.
  class Buffers {
   public:
    [[nodiscard]] std::span<std::uint16_t> codes(std::size_t n) {
      return codes_.get(n);
    }
    template <typename T>
    [[nodiscard]] std::span<T> recon(std::size_t n) {
      if constexpr (sizeof(T) == 4) {
        return recon32_.get(n);
      } else {
        return recon64_.get(n);
      }
    }
    /// Decode-side code array (decode_chunk target), reused by capacity.
    [[nodiscard]] std::vector<std::uint16_t>& code_vector() {
      return code_vec_;
    }
    /// Decode-side pre-decoded unpredictable values.
    template <typename T>
    [[nodiscard]] std::vector<T>& unpredictable_values() {
      if constexpr (sizeof(T) == 4) {
        return unpred32_;
      } else {
        return unpred64_;
      }
    }
    /// Decode-side per-row unpredictable ranks.
    [[nodiscard]] std::vector<std::size_t>& row_ranks() { return row_ranks_; }
    /// The 1-layer walk's anti-diagonal staging (both sides), reused by
    /// capacity.
    [[nodiscard]] std::vector<double>& diagonals() { return diagonals_; }

    /// Block-gather staging buffer (archive writer's subcuboid copy) —
    /// deliberately distinct from recon(): the codec call inside the same
    /// block task uses recon() while the gathered input is still live.
    template <typename T>
    [[nodiscard]] std::span<T> gather(std::size_t n) {
      if constexpr (sizeof(T) == 4) {
        return gather32_.get(n);
      } else {
        return gather64_.get(n);
      }
    }

    /// Compressed-payload staging (archive reader's pread target) — its
    /// own slot because the payload must stay live while the codec decodes
    /// from it through the other decode-side buffers.
    [[nodiscard]] std::span<std::uint8_t> payload(std::size_t n) {
      return payload_.get(n);
    }

   private:
    /// Grow-only buffer that skips value-initialization (the walks write
    /// every element) — reuse is allocation- and memset-free.
    template <typename T>
    struct Grow {
      std::unique_ptr<T[]> data;
      std::size_t cap = 0;
      [[nodiscard]] std::span<T> get(std::size_t n) {
        if (n > cap) {
          data = std::make_unique_for_overwrite<T[]>(n);
          cap = n;
        }
        return {data.get(), n};
      }
    };
    Grow<std::uint16_t> codes_;
    Grow<float> recon32_;
    Grow<double> recon64_;
    Grow<float> gather32_;
    Grow<double> gather64_;
    Grow<std::uint8_t> payload_;
    std::vector<std::uint16_t> code_vec_;
    std::vector<float> unpred32_;
    std::vector<double> unpred64_;
    std::vector<std::size_t> row_ranks_;
    std::vector<double> diagonals_;
  };

  /// The calling thread's buffer set (created on first use).
  [[nodiscard]] Buffers& local();

 private:
  std::mutex mutex_;  // guards the slot map only
  std::unordered_map<std::thread::id, std::unique_ptr<Buffers>> slots_;
};

/// Entropy backend for the quantization-code section of a stream.  Like
/// kTurbo's reciprocal quantizer, this is an explicit stream-contents
/// trade selected per call: kHuffman is the seed-faithful default, kRans
/// writes the interleaved two-stream rANS section instead (flagged in the
/// stream header; old readers reject it cleanly as an unknown flag).
/// Decoders dispatch on the stream itself, never on this field.
enum class EntropyBackend : std::uint8_t { kHuffman = 0, kRans = 1 };

/// Execution strategy for one codec call.  Value type: copy freely; the
/// pointers are non-owning borrows that must outlive the call.
struct ExecPolicy {
  /// Compress-side hot path (encode side only — decode is exact in every
  /// mode).
  HotPathMode mode = HotPathMode::kFast;
  /// Pool for the threaded entry points (parallel codec, archive writer).
  /// Null: the callee builds a private pool of `threads` workers.
  ThreadPool* pool = nullptr;
  /// Worker count when `pool` is null (0 = hardware_concurrency).
  std::size_t threads = 0;
  /// Reusable buffer arena; null = fresh allocations per call.
  CodecScratch* scratch = nullptr;
  /// Entropy coder for the quantization-code section (encode side only —
  /// decode follows the stream).
  EntropyBackend entropy = EntropyBackend::kHuffman;
};

/// Working buffer from `scratch`'s arena, or a fresh caller-owned
/// allocation when it is null (`own` keeps it alive; uninitialized either
/// way — callers write every element).  These four helpers are the only
/// scratch-or-fresh selection logic in the codebase.
[[nodiscard]] inline std::span<std::uint16_t> scratch_codes_or(
    CodecScratch* scratch, std::unique_ptr<std::uint16_t[]>& own,
    std::size_t n) {
  if (scratch != nullptr) return scratch->local().codes(n);
  own = std::make_unique_for_overwrite<std::uint16_t[]>(n);
  return {own.get(), n};
}

template <typename T>
[[nodiscard]] inline std::span<T> scratch_recon_or(CodecScratch* scratch,
                                                   std::unique_ptr<T[]>& own,
                                                   std::size_t n) {
  if (scratch != nullptr) return scratch->local().recon<T>(n);
  own = std::make_unique_for_overwrite<T[]>(n);
  return {own.get(), n};
}

/// Compressed-payload staging from the arena, or a fresh allocation in
/// `own` (uninitialized either way — the caller fills it).
[[nodiscard]] inline std::span<std::uint8_t> scratch_payload_or(
    CodecScratch* scratch, std::unique_ptr<std::uint8_t[]>& own,
    std::size_t n) {
  if (scratch != nullptr) return scratch->local().payload(n);
  own = std::make_unique_for_overwrite<std::uint8_t[]>(n);
  return {own.get(), n};
}

/// Decode-side code vector from the arena (reused by capacity) or the
/// caller's fallback vector.
[[nodiscard]] inline std::vector<std::uint16_t>& scratch_code_vector_or(
    CodecScratch* scratch, std::vector<std::uint16_t>& own) {
  return scratch != nullptr ? scratch->local().code_vector() : own;
}

}  // namespace sz14
