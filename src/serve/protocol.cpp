#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <charconv>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "fabric/protocol.hpp"
#include "syndrome/syndrome.hpp"

namespace gpufi::serve {

namespace {

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32_le(const char* p) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/// Lossless double formatting (round-trips bit-exactly through
/// parse_number<double>).
std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

template <class T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || p != s.data() + s.size())
    return std::nullopt;
  return v;
}

/// Only the canonical spelling parses: "05" or "-0" would decode to a value
/// that re-encodes to other bytes.
template <class T>
std::optional<T> parse_integer(std::string_view s) {
  const auto digits = s.substr(s.starts_with('-') ? 1 : 0);
  if (digits.starts_with('0') && s != "0") return std::nullopt;
  return parse_number<T>(s);
}

}  // namespace

void put_kv(std::string& out, std::string_view key, std::string_view value) {
  if (value.find('\n') != std::string_view::npos)
    throw std::invalid_argument("newline in protocol value for key '" +
                                std::string(key) + "'");
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('\n');
}

void put_kv(std::string& out, std::string_view key, std::uint64_t value) {
  put_kv(out, key, std::to_string(value));
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_integer<std::uint64_t>(s);
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  return parse_integer<std::int64_t>(s);
}

void KvReader::fail(std::string msg) {
  if (!ok_) return;
  ok_ = false;
  error_ = std::move(msg);
}

bool KvReader::next(std::string_view& key, std::string_view& value) {
  if (!ok_ || rest_.empty()) return false;
  const auto nl = rest_.find('\n');
  const auto line = rest_.substr(0, nl);
  const auto eq = line.find('=');
  if (nl == std::string_view::npos) {
    fail("truncated line: " + std::string(line));
    return false;
  }
  if (eq == std::string_view::npos) {
    fail("malformed line (no '='): " + std::string(line));
    return false;
  }
  rest_.remove_prefix(nl + 1);
  key = line.substr(0, eq);
  value = line.substr(eq + 1);
  return true;
}

std::string_view KvReader::take(std::string_view key) {
  std::string_view k, v;
  if (!next(k, v)) {
    fail("expected key '" + std::string(key) + "'");
    return {};
  }
  if (k != key) fail("expected key '" + std::string(key) + "'");
  return v;
}

std::uint64_t KvReader::u64(std::string_view s) {
  if (!ok_) return 0;
  const auto v = parse_u64(s);
  if (!v) fail("bad number: '" + std::string(s) + "'");
  return v.value_or(0);
}

bool frame_type_valid(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::Submit) &&
         t <= static_cast<std::uint8_t>(FrameType::ShardProgress);
}

std::string encode_frame(const Frame& f) {
  if (f.payload.size() > kMaxFramePayload)
    throw std::length_error("frame payload exceeds kMaxFramePayload");
  std::string out;
  out.reserve(kFrameHeaderSize + f.payload.size());
  put_u32_le(out, static_cast<std::uint32_t>(f.payload.size()));
  out.push_back(static_cast<char>(f.type));
  out.append(f.payload);
  return out;
}

DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed, std::size_t max_payload) {
  if (buf.size() < kFrameHeaderSize) return DecodeStatus::NeedMore;
  const std::uint32_t len = get_u32_le(buf.data());
  if (len > max_payload) return DecodeStatus::TooLarge;
  const auto type = static_cast<std::uint8_t>(buf[4]);
  if (!frame_type_valid(type)) return DecodeStatus::BadType;
  if (buf.size() < kFrameHeaderSize + len) return DecodeStatus::NeedMore;
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buf.data() + kFrameHeaderSize, len);
  consumed = kFrameHeaderSize + len;
  return DecodeStatus::Ok;
}

bool write_frame(int fd, const Frame& f) {
  std::string wire;
  try {
    wire = encode_frame(f);
  } catch (const std::exception&) {
    return false;
  }
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

/// Reads exactly `len` bytes. 1 = ok, 0 = clean EOF at offset 0, -1 = error.
int read_exact(int fd, char* dst, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, dst + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return off == 0 ? 0 : -1;
    off += static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

ReadStatus read_frame(int fd, Frame& out, std::size_t max_payload) {
  char header[kFrameHeaderSize];
  const int h = read_exact(fd, header, sizeof header);
  if (h == 0) return ReadStatus::Eof;
  if (h < 0) return ReadStatus::Error;
  const std::uint32_t len = get_u32_le(header);
  if (len > max_payload) return ReadStatus::TooLarge;
  const auto type = static_cast<std::uint8_t>(header[4]);
  if (!frame_type_valid(type)) return ReadStatus::BadType;
  out.type = static_cast<FrameType>(type);
  out.payload.resize(len);
  if (len != 0 && read_exact(fd, out.payload.data(), len) != 1)
    return ReadStatus::Error;
  return ReadStatus::Ok;
}

// ---------------------------------------------------------------------------
// Campaign spec.
// ---------------------------------------------------------------------------

std::string_view campaign_kind_name(CampaignKind k) {
  switch (k) {
    case CampaignKind::Rtl: return "rtl";
    case CampaignKind::Tmxm: return "tmxm";
    case CampaignKind::Sw: return "sw";
    case CampaignKind::Cnn: return "cnn";
  }
  return "?";
}

std::optional<CampaignKind> parse_campaign_kind(std::string_view s) {
  if (s == "rtl") return CampaignKind::Rtl;
  if (s == "tmxm") return CampaignKind::Tmxm;
  if (s == "sw") return CampaignKind::Sw;
  if (s == "cnn") return CampaignKind::Cnn;
  return std::nullopt;
}

std::string encode_spec(const CampaignSpec& spec) {
  std::string out;
  put_kv(out, "kind", campaign_kind_name(spec.kind));
  put_kv(out, "op", spec.op);
  put_kv(out, "module", spec.module);
  put_kv(out, "range", spec.range);
  put_kv(out, "tile", spec.tile);
  put_kv(out, "app", spec.app);
  put_kv(out, "model", spec.model);
  put_kv(out, "net", spec.net);
  put_kv(out, "fault_model", spec.fault_model);
  put_kv(out, "fault_duration", spec.fault_duration);
  put_kv(out, "burst_period", spec.burst_period);
  put_kv(out, "faults", spec.faults);
  put_kv(out, "injections", spec.injections);
  put_kv(out, "seed", spec.seed);
  put_kv(out, "jobs", spec.jobs);
  put_kv(out, "workers", spec.workers);
  put_kv(out, "accel", spec.accel);
  put_kv(out, "db", spec.db_path);
  put_kv(out, "models", spec.models_dir);
  put_kv(out, "priority", std::to_string(spec.priority));
  put_kv(out, "deadline_ms", spec.deadline_ms);
  put_kv(out, "progress_interval", spec.progress_interval);
  put_kv(out, "plan", spec.plan);
  return out;
}

std::optional<CampaignSpec> decode_spec(std::string_view payload,
                                        std::string* error) {
  CampaignSpec spec;
  KvReader in(payload);
  std::string_view key, value;
  while (in.next(key, value)) {
    const auto number = [&]<class T>(T& dst) {
      if (const auto v = parse_u64(value); v && *v <= T(-1))
        dst = static_cast<T>(*v);
      else
        in.fail("bad number for '" + std::string(key) +
                "': " + std::string(value));
    };
    if (key == "kind") {
      const auto k = parse_campaign_kind(value);
      if (!k) in.fail("unknown kind: " + std::string(value));
      spec.kind = k.value_or(spec.kind);
    } else if (key == "op") spec.op = value;
    else if (key == "module") spec.module = value;
    else if (key == "range") spec.range = value;
    else if (key == "tile") spec.tile = value;
    else if (key == "app") spec.app = value;
    else if (key == "model") spec.model = value;
    else if (key == "net") spec.net = value;
    else if (key == "fault_model") spec.fault_model = value;
    else if (key == "fault_duration") number(spec.fault_duration);
    else if (key == "burst_period") number(spec.burst_period);
    else if (key == "accel") spec.accel = value;
    else if (key == "db") spec.db_path = value;
    else if (key == "models") spec.models_dir = value;
    else if (key == "faults") number(spec.faults);
    else if (key == "injections") number(spec.injections);
    else if (key == "seed") number(spec.seed);
    else if (key == "jobs") number(spec.jobs);
    else if (key == "workers") number(spec.workers);
    else if (key == "priority") {
      const auto v = parse_i64(value);
      if (!v || *v < std::numeric_limits<int>::min() ||
          *v > std::numeric_limits<int>::max())
        in.fail("bad number for 'priority': " + std::string(value));
      spec.priority = static_cast<int>(v.value_or(0));
    } else if (key == "deadline_ms") number(spec.deadline_ms);
    else if (key == "progress_interval") number(spec.progress_interval);
    else if (key == "plan") spec.plan = value;
    else in.fail("unknown spec key: " + std::string(key));
  }
  std::optional<std::string> err;
  if (!in.ok()) err = in.error();
  else err = validate_spec(spec);
  if (err) {
    if (error) *error = *err;
    return std::nullopt;
  }
  return spec;
}

std::optional<std::string> validate_spec(const CampaignSpec& spec) {
  if (!parse_acceleration(spec.accel))
    return "unknown accel level: " + spec.accel;
  if (!parse_fault_model(spec.fault_model))
    return "unknown fault model: " + spec.fault_model;
  if (!spec.plan.empty()) {
    if (spec.kind != CampaignKind::Sw)
      return "plan is only valid for kind=sw";
    std::string err;
    if (!vocab::parse_plan(spec.plan, &err)) return err;
  }
  switch (spec.kind) {
    case CampaignKind::Rtl:
      if (!parse_opcode(spec.op)) return "unknown opcode: " + spec.op;
      if (!parse_module(spec.module))
        return "unknown module: " + spec.module;
      if (!parse_range(spec.range)) return "unknown range: " + spec.range;
      break;
    case CampaignKind::Tmxm:
      if (!parse_module(spec.module)) return "unknown site: " + spec.module;
      if (!parse_tile(spec.tile)) return "unknown tile: " + spec.tile;
      break;
    case CampaignKind::Sw:
      if (!is_known_app(spec.app)) return "unknown app: " + spec.app;
      if (!parse_sw_model(spec.model))
        return "unknown sw fault model: " + spec.model;
      break;
    case CampaignKind::Cnn:
      if (spec.net != "lenet" && spec.net != "yolo")
        return "unknown net: " + spec.net;
      if (!parse_cnn_model(spec.model))
        return "unknown cnn fault model: " + spec.model;
      break;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Progress payload.
// ---------------------------------------------------------------------------

std::string encode_progress(const exec::Progress& p) {
  std::string out;
  put_kv(out, "done", p.done);
  put_kv(out, "total", p.total);
  put_kv(out, "per_second", fmt_double(p.per_second));
  put_kv(out, "eta_seconds", fmt_double(p.eta_seconds));
  return out;
}

std::optional<exec::Progress> decode_progress(std::string_view payload) {
  exec::Progress p;
  KvReader in(payload);
  std::string_view key, value;
  while (in.next(key, value)) {
    if (key == "done") p.done = in.u64(value);
    else if (key == "total") p.total = in.u64(value);
    else if (key == "per_second" || key == "eta_seconds") {
      const auto d = parse_number<double>(value);
      if (!d) in.fail("bad number: " + std::string(value));
      (key == "per_second" ? p.per_second : p.eta_seconds) = d.value_or(0.0);
    } else {
      in.fail("unknown progress key: " + std::string(key));
    }
  }
  if (!in.ok()) return std::nullopt;
  return p;
}

// ---------------------------------------------------------------------------
// Result serializations.
// ---------------------------------------------------------------------------

std::string serialize_campaign_result(const CampaignSpec& spec,
                                      const rtlfi::CampaignResult& r) {
  std::string out;
  put_kv(out, "kind", campaign_kind_name(spec.kind));
  put_kv(out, "fault_model", spec.fault_model);
  out += fabric::encode_rtl_partial(r);

  // The campaign's distilled syndrome-database bytes: the artifact the
  // two-level hand-off consumes, pinned verbatim by the served-equals-offline
  // contract.
  syndrome::Database db;
  if (spec.kind == CampaignKind::Tmxm) {
    const auto site = parse_module(spec.module);
    if (!site) throw std::invalid_argument("bad tmxm site: " + spec.module);
    db.add_tmxm_campaign(*site, 8, 8, r);
  } else {
    const auto module = parse_module(spec.module);
    const auto op = parse_opcode(spec.op);
    const auto range = parse_range(spec.range);
    const auto model = parse_fault_model(spec.fault_model);
    if (!module || !op || !range || !model)
      throw std::invalid_argument("bad rtl spec for serialization");
    db.add_campaign(syndrome::Key{*module, *op, *range, *model}, r);
  }
  db.finalize();
  std::ostringstream dbos;
  db.save(dbos);
  out += "--- syndrome-db ---\n";
  out += dbos.str();
  return out;
}

std::string serialize_sw_result(const swfi::Result& r) {
  std::string out;
  put_kv(out, "kind", "sw");
  out += fabric::encode_sw_partial(r);
  return out;
}

std::string serialize_planned_sw_result(const swfi::PlanResult& r) {
  std::string out;
  put_kv(out, "kind", "sw-planned");
  out += fabric::encode_sw_partial(r.result);
  put_kv(out, "adaptive", std::uint64_t{r.adaptive ? 1u : 0u});
  put_kv(out, "planned_trials", r.planned_trials);
  put_kv(out, "trials_saved", r.trials_saved);
  put_kv(out, "pvf", fmt_double(r.pvf));
  put_kv(out, "pvf_half_width", fmt_double(r.pvf_half_width));
  put_kv(out, "strata", r.strata.size());
  for (const auto& s : r.strata) {
    std::string sl;
    sl += isa::mnemonic(s.op);
    sl += ' ';
    sl += rtlfi::range_name(s.range);
    sl += ' ';
    sl += std::to_string(s.candidates);
    sl += ' ';
    sl += std::to_string(s.budget);
    sl += ' ';
    sl += std::to_string(s.trials);
    sl += ' ';
    sl += std::to_string(s.masked);
    sl += ' ';
    sl += std::to_string(s.sdc);
    sl += ' ';
    sl += std::to_string(s.due);
    sl += ' ';
    sl += swfi::stratum_stop_name(s.stop);
    sl += ' ';
    sl += fmt_double(s.sdc_half_width);
    put_kv(out, "stratum", sl);
  }
  return out;
}

std::string serialize_cnn_result(const nn::CnnCampaignResult& r) {
  std::string out;
  put_kv(out, "kind", "cnn");
  put_kv(out, "injections", r.injections);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc", r.sdc);
  put_kv(out, "critical", r.critical);
  put_kv(out, "due", r.due);
  return out;
}

}  // namespace gpufi::serve
