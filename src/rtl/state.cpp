#include "rtl/state.hpp"

#include <stdexcept>

namespace gpufi::rtl {

std::string_view module_name(Module m) {
  switch (m) {
    case Module::Fp32Fu: return "FP32";
    case Module::IntFu: return "INT";
    case Module::Sfu: return "SFU";
    case Module::SfuCtl: return "SFU controller";
    case Module::Scheduler: return "Scheduler controller";
    case Module::PipelineRegs: return "Pipeline Registers";
  }
  return "?";
}

FieldRef StateLayout::add(std::string name, unsigned width, FieldRole role) {
  if (width == 0 || width > 64)
    throw std::invalid_argument("StateLayout::add: bad width for " + name);
  FieldInfo info;
  info.name = std::move(name);
  info.offset = static_cast<std::uint32_t>(bits_);
  info.width = static_cast<std::uint16_t>(width);
  info.role = role;
  fields_.push_back(info);
  bits_ += width;
  if (role == FieldRole::Data) data_bits_ += width;
  return FieldRef{info.offset, info.width};
}

void ModuleState::set_tracking(bool on, std::uint64_t salt) {
  track_ = on;
  if (!on) return;
  salt_ = salt;
  digest_ = 0;
  for (const auto& fi : layout_->fields())
    digest_ ^= state_digest_mix(salt_, fi.offset,
                                bits_.get_field(fi.offset, fi.width));
}

void ModuleState::load(const BitVector& bits, std::uint64_t digest) {
  if (bits.size() != bits_.size())
    throw std::invalid_argument("ModuleState::load: size mismatch");
  bits_ = bits;
  digest_ = digest;
}

const FieldInfo& StateLayout::field_at(std::size_t bit) const {
  return fields_[field_index(bit)];
}

std::size_t StateLayout::field_index(std::size_t bit) const {
  // Binary search over the sorted field offsets.
  std::size_t lo = 0, hi = fields_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (fields_[mid].offset <= bit)
      lo = mid;
    else
      hi = mid;
  }
  if (fields_.empty() || bit >= bits_)
    throw std::out_of_range("StateLayout::field_at");
  return lo;
}

}  // namespace gpufi::rtl
