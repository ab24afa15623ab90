// Canonical-JSON serialization of QuarantineEngine state, the
// foundation of serve-layer checkpoint/restore (serve/checkpoint.hpp).
//
// Everything the engine needs to resume a stream mid-flight is plain
// per-host data: the HostRecord state machine (state, strikes,
// offenses, first-event times, quarantine interval bookkeeping) and the
// DetectorState window (index, contact/failure counts, linear-counting
// sketch bitmap, flagged latch). The release priority queue is *not*
// serialized — it is derivable: every kQuarantined record re-enters the
// queue at its release_time on restore, and queue ordering is fully
// determined by (time, host) contents.
//
// Each section — host arrays, block-pool store, engine snapshot — has
// exactly one encoder, which emits the bytes directly (no JsonValue
// tree), and one decoder over a parsed JsonValue. Serve checkpoints
// reuse the same section codecs, so engine snapshots and checkpoints
// cannot drift apart. Encoding is column-oriented (one JSON array per
// field, hosts in id order) in canonical form: insertion-ordered keys,
// shortest-round-trip doubles, integers at full 64-bit precision (the
// sketch bitmap), window index -1 as "-1", no whitespace. Decoders
// check declared sizes against array lengths before allocating and
// reject any value whose field cannot hold it, so every accepted
// document re-serializes to its own bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "quarantine/engine.hpp"

namespace dq::quarantine {

/// Canonical JSON of a full QuarantineConfig. Restore paths compare
/// dump() of this against the checkpointed config to refuse resuming
/// under different thresholds (the stream would silently diverge).
campaign::JsonValue config_to_json(const QuarantineConfig& config);

/// Per-host state gathered in host order; the unit both engine
/// snapshots and serve checkpoints serialize (the serve layer gathers
/// across shard engines in *global* host order so checkpoint bytes are
/// shard-count independent).
struct HostArrays {
  std::vector<HostRecord> records;
  std::vector<DetectorState> detectors;
};

/// Appends the column-oriented encoding of `hosts` to `out`. Throws
/// std::invalid_argument when the two arrays differ in length.
void append_host_arrays_json(const HostArrays& hosts, std::string& out);

/// Inverse of append_host_arrays_json. Throws std::invalid_argument on
/// missing columns, length mismatches, or out-of-range values.
HostArrays host_arrays_from_json(const campaign::JsonValue& json);

/// Shared-bitmap pool state (EstimatorBackend::kSharedBitmap), the
/// store's counterpart of HostArrays: per block, the window index and
/// both pools' words, blocks in global order. Zero-bit counts are
/// derived on restore. The serve layer gathers blocks across shard
/// stores in global block order, so the bytes are shard-count
/// independent.
struct StoreBlocks {
  std::size_t words_per_block = 0;
  std::vector<std::int64_t> window;  ///< per block; -1 before first use
  std::vector<std::uint64_t> pool;   ///< window.size() × words_per_block

  std::size_t num_blocks() const noexcept { return window.size(); }
  /// Appends block `block` of `store` as the next block.
  void push_block(const CompactEstimatorStore& store, std::size_t block);
  /// Overwrites block `block` of `store` with block `i`. Throws
  /// std::invalid_argument naming block `i` on a pool-geometry mismatch
  /// or words the store rejects (bits past the pool width, nonzero
  /// pools in an untouched block). Restore block pools *before*
  /// per-host detector state: compact host windows are stored relative
  /// to their block's window.
  void restore_block(std::size_t i, CompactEstimatorStore& store,
                     std::size_t block) const;
};

/// Appends the encoding of `blocks` to `out`.
void append_store_blocks_json(const StoreBlocks& blocks, std::string& out);

/// Inverse of append_store_blocks_json. Throws std::invalid_argument on
/// malformed input or window/pool lengths that disagree with the
/// declared num_blocks × words_per_block.
StoreBlocks store_blocks_from_json(const campaign::JsonValue& json);

/// Full engine snapshot: schema version, config, quarantine-event
/// count, host arrays, and (under kSharedBitmap) the block pool store —
/// the section encoders above, composed and parsed back into a tree.
///
/// Version history — restore_engine refuses anything but the current:
///   1  (implicit, no "version" key): exact backend only.
///   2  "version":2; config gains the "estimator" object; compact
///      engines add a "store" section and their det_sketch column is
///      all zeros (virtual bits live in the store).
campaign::JsonValue engine_to_json(const QuarantineEngine& engine);

/// The version engine_to_json writes and restore_engine requires.
inline constexpr std::uint64_t kSnapshotVersion = 2;

/// Restores a snapshot into `engine`, which must be freshly
/// constructed with the same num_hosts and a config whose canonical
/// JSON matches the snapshot's. Throws std::invalid_argument on any
/// mismatch or malformed input.
void restore_engine(QuarantineEngine& engine,
                    const campaign::JsonValue& json);

}  // namespace dq::quarantine
