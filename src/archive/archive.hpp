// Umbrella header for the SZA block-sharded archive subsystem:
//   codec.hpp          — CCID-style pluggable block-codec registry
//   blocking.hpp       — block grid / hyperslab arithmetic
//   archive_format.hpp — on-disk container layout (superblock/footer)
//   writer.hpp         — append-only parallel writer (crash-consistent
//                        per-append footer checkpoints)
//   reader.hpp         — footer-indexed random-access reader (strict,
//                        salvage, or degraded open; parity read-repair)
//   parity.hpp         — XOR parity-group math (reconstruct/recompute)
//   fsck.hpp           — structural check / crash repair (truncation)
//   scrub.hpp          — the payload scan + parity heal engine (scrub,
//                        fsck and the daemon's background scrub)
//   single_flight.hpp  — concurrent-decode coalescing for the serving path
//   stat_format.hpp    — field/index summaries (CLI stat + serve `stat` op)
#pragma once

#include "archive/archive_format.hpp"
#include "archive/blocking.hpp"
#include "archive/codec.hpp"
#include "archive/fsck.hpp"
#include "archive/parity.hpp"
#include "archive/reader.hpp"
#include "archive/scrub.hpp"
#include "archive/single_flight.hpp"
#include "archive/stat_format.hpp"
#include "archive/writer.hpp"
