#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"

namespace gpufi::rtl {

/// The six fault-injection targets of Table I. Memories (register file,
/// shared memory, caches) are deliberately absent: the paper assumes they
/// are ECC protected and does not inject into them.
enum class Module : std::uint8_t {
  Fp32Fu,       ///< 8-lane unified FP32 FMA datapath
  IntFu,        ///< 8-lane integer MAD datapath
  Sfu,          ///< 2 special function units (sin/exp pipelines)
  SfuCtl,       ///< SFU request queue / arbitration controller
  Scheduler,    ///< warp scheduler controller (warp table + issue FSM)
  PipelineRegs, ///< operand/result collectors and per-stage latches
};

/// Number of faultable modules.
constexpr std::size_t kNumModules = 6;

/// Human-readable module name ("FP32", "Scheduler", ...).
std::string_view module_name(Module m);

/// Whether a flip-flop field carries datapath values or control signals.
/// The paper's key structural observation (~84% of pipeline registers are
/// data, ~16% control, and the control ones cause the DUEs/multi-thread
/// SDCs) is reproduced by tagging every field.
enum class FieldRole : std::uint8_t { Data, Control };

/// Handle to a packed field inside a module's flip-flop bank.
struct FieldRef {
  std::uint32_t offset = 0;
  std::uint16_t width = 0;
};

/// Metadata of one registered field.
struct FieldInfo {
  std::string name;
  std::uint32_t offset = 0;
  std::uint16_t width = 0;
  FieldRole role = FieldRole::Data;
};

/// Builder/registry for a module's flip-flop bank: fields are appended in
/// declaration order and packed contiguously. The layout doubles as the
/// lookup table that maps an injected bit index back to a named field for
/// the detailed fault reports.
class StateLayout {
 public:
  /// Registers a field of `width` bits; returns its handle.
  FieldRef add(std::string name, unsigned width,
               FieldRole role = FieldRole::Data);

  /// Total flip-flop count (Table I column "RTL Size").
  std::size_t bits() const { return bits_; }
  /// Flip-flops tagged as data.
  std::size_t data_bits() const { return data_bits_; }
  /// Flip-flops tagged as control.
  std::size_t control_bits() const { return bits_ - data_bits_; }

  /// Field containing the given bit (for reports). Throws if out of range.
  const FieldInfo& field_at(std::size_t bit) const;
  /// Index into fields() of the field containing `bit`. Throws if out of
  /// range.
  std::size_t field_index(std::size_t bit) const;

  const std::vector<FieldInfo>& fields() const { return fields_; }

 private:
  std::vector<FieldInfo> fields_;
  std::size_t bits_ = 0;
  std::size_t data_bits_ = 0;
};

// ---------------------------------------------------------------------------
// Incremental state digests.
//
// Every stateful component (flip-flop bank, architectural memory, CTA loop
// index) contributes an XOR-accumulated 64-bit digest; the composite machine
// digest is the XOR of all component digests. A component's digest is the
// XOR over its (position, value) pairs of `state_digest_mix`, which hashes
// position and value under a per-component salt. Two properties make the
// digest cheap to maintain:
//  * XOR accumulation: changing one field costs two mixes (XOR the old
//    contribution out, the new one in) — O(1) per state write.
//  * Zero values contribute nothing: a power-on-reset component digests to
//    0 and re-computation after enabling tracking touches only live state.
//
// The digest is 64 bits wide: with ~1e6 digest comparisons per campaign the
// probability of any false state-equality is bounded by ~1e6 * 2^-64
// (~5e-14), far below the campaigns' statistical margins.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDigestPosMult = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDigestValMult = 0xbf58476d1ce4e5b9ull;

/// Contribution of one (position, value) pair to a component digest.
constexpr std::uint64_t state_digest_mix(std::uint64_t salt, std::uint64_t pos,
                                         std::uint64_t val) {
  return val == 0
             ? 0
             : splitmix64(salt + (pos + 1) * kDigestPosMult +
                          val * kDigestValMult);
}

/// Digest-domain indices: each component mixes under a distinct salt so that
/// equal (position, value) pairs in different components cannot cancel.
constexpr unsigned kSaltDomainModule0 = 0;  ///< + Module enum index (0..5)
constexpr unsigned kSaltDomainGlobal = 8;
constexpr unsigned kSaltDomainRegs = 9;
constexpr unsigned kSaltDomainPreds = 10;
constexpr unsigned kSaltDomainShared = 11;
constexpr unsigned kSaltDomainCta = 12;

/// Salt of a digest domain.
constexpr std::uint64_t digest_salt(unsigned domain) {
  return splitmix64(0x6770756669646967ull + domain);
}

/// A module's live flip-flop bank: a BitVector addressed through FieldRefs.
/// Fault injection flips raw bits; normal operation reads/writes fields.
///
/// With tracking enabled (`set_tracking`), the bank maintains an incremental
/// field-granular digest of its contents; tracking is off by default so the
/// plain simulation path pays only an untaken branch per field write.
class ModuleState {
 public:
  explicit ModuleState(const StateLayout& layout)
      : layout_(&layout), bits_(layout.bits()) {}

  std::uint64_t get(FieldRef f) const {
    return bits_.get_field(f.offset, f.width);
  }
  void set(FieldRef f, std::uint64_t v) {
    if (track_) {
      const std::uint64_t old = bits_.get_field(f.offset, f.width);
      if (old == v) return;
      digest_ ^= state_digest_mix(salt_, f.offset, old) ^
                 state_digest_mix(salt_, f.offset, v);
    }
    bits_.set_field(f.offset, f.width, v);
  }
  /// set() for a caller that already read the field: `old` is its current
  /// value and differs from `v`.
  void replace(FieldRef f, std::uint64_t old, std::uint64_t v) {
    if (track_)
      digest_ ^= state_digest_mix(salt_, f.offset, old) ^
                 state_digest_mix(salt_, f.offset, v);
    bits_.set_field(f.offset, f.width, v);
  }
  bool get_flag(FieldRef f) const { return get(f) != 0; }

  /// Sign-extends a field read as a two's-complement value.
  std::int64_t get_signed(FieldRef f) const {
    const std::uint64_t v = get(f);
    if (f.width == 64) return static_cast<std::int64_t>(v);
    const std::uint64_t sign = std::uint64_t{1} << (f.width - 1);
    return static_cast<std::int64_t>((v ^ sign)) -
           static_cast<std::int64_t>(sign);
  }

  /// Stuck-at drive primitive: forces `bit` to `value`, a no-op when the
  /// flip-flop already holds it (so the digest stays exact either way).
  void force(std::size_t bit, bool value) {
    if (bits_.get(bit) != value) flip(bit);
  }

  /// The fault-injection primitive.
  void flip(std::size_t bit) {
    if (!track_) {
      bits_.flip(bit);
      return;
    }
    const FieldInfo& fi = layout_->field_at(bit);
    digest_ ^= state_digest_mix(salt_, fi.offset,
                                bits_.get_field(fi.offset, fi.width));
    bits_.flip(bit);
    digest_ ^= state_digest_mix(salt_, fi.offset,
                                bits_.get_field(fi.offset, fi.width));
  }
  /// Clears every flip-flop (power-on reset).
  void reset() {
    bits_.clear();
    digest_ = 0;
  }

  std::size_t size() const { return bits_.size(); }
  const StateLayout& layout() const { return *layout_; }

  // ---- digest tracking (checkpoint/convergence fast path) --------------

  /// Enables (recomputing the digest from the live bits) or disables
  /// incremental digest maintenance. `salt` is the bank's digest domain.
  void set_tracking(bool on, std::uint64_t salt);
  bool tracking() const { return track_; }
  /// Current content digest (only meaningful while tracking).
  std::uint64_t digest() const { return digest_; }

  /// Raw bit image (checkpoint capture).
  const BitVector& bits() const { return bits_; }
  /// Restores a checkpointed bit image plus its digest. Sizes must match.
  void load(const BitVector& bits, std::uint64_t digest);

 private:
  const StateLayout* layout_;
  BitVector bits_;
  std::uint64_t salt_ = 0;
  std::uint64_t digest_ = 0;
  bool track_ = false;
};

}  // namespace gpufi::rtl
