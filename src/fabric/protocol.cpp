#include "fabric/protocol.hpp"

#include <bit>
#include <ranges>
#include <type_traits>
#include <utility>

namespace gpufi::fabric {

namespace {

using serve::KvReader;
using serve::put_kv;

/// Doubles cross the wire as IEEE-754 bit patterns: text formatting (even
/// max_digits10) is a round-trip risk the byte-identity contract cannot
/// afford, and both ends are version-checked peers of the same codec.
std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Appends the values of a packed line: enums and flags as their numeric
/// values, a range as one value per element.
template <class T>
void put_field(std::string& out, char& sep, const T& v) {
  if constexpr (std::ranges::range<T>) {
    for (const auto& e : v) put_field(out, sep, e);
  } else {
    out += sep;
    sep = ' ';
    if constexpr (std::is_enum_v<T>)
      out += std::to_string(static_cast<unsigned>(v));
    else
      out += std::to_string(v);
  }
}

/// Appends one packed line, "key=v1 v2 ...\n".
template <class... Ts>
void put_fields(std::string& out, std::string_view key, const Ts&... vs) {
  out += key;
  char sep = '=';
  (put_field(out, sep, vs), ...);
  out += '\n';
}

/// The one checked narrowing of a decoded integer to its field's type: a
/// value that does not fit fails the reader instead of wrapping.
template <class T, class Int>
T narrow(KvReader& c, Int v) {
  if (!std::in_range<T>(v)) c.fail("value out of range: " + std::to_string(v));
  return static_cast<T>(v);
}

/// The next line's value (which must carry `key`), narrowed to T.
template <class T>
T take(KvReader& c, std::string_view key) {
  return narrow<T>(c, c.take_u64(key));
}

/// Flags cross the wire as 0 or 1; any other value is not canonical.
bool flag(KvReader& c, std::uint64_t v) {
  if (v > 1) c.fail("bad flag: " + std::to_string(v));
  return v != 0;
}

/// Field scanner for the packed per-record lines: fields are separated by
/// exactly one space, so the only accepted spelling is the encoder's.
struct Fields {
  std::string_view rest;
  KvReader* c;
  bool end = false;  ///< the last field has been read

  std::string_view token() {
    if (end) {
      c->fail("missing record field");
      return {};
    }
    const auto sp = rest.find(' ');
    const auto tok = rest.substr(0, sp);
    end = sp == std::string_view::npos;
    rest = end ? std::string_view{} : rest.substr(sp + 1);
    return tok;
  }

  template <class T = std::uint64_t>
  T next() {
    const auto tok = token();
    if constexpr (std::is_signed_v<T>) {
      const auto v = serve::parse_i64(tok);
      if (!v) c->fail("bad number: '" + std::string(tok) + "'");
      return narrow<T>(*c, v.value_or(0));
    } else {
      return narrow<T>(*c, c->u64(tok));
    }
  }

  bool next_flag() { return flag(*c, next()); }

  template <class Enum>
  Enum next_enum(std::uint64_t n_values, const char* what) {
    const auto raw = next();
    if (raw >= n_values) c->fail(std::string("bad ") + what);
    return static_cast<Enum>(raw);
  }

  void done() {
    if (!end) c->fail("trailing record fields");
  }
};

/// Inserts a decoded map entry, which must sort after every entry before it
/// (the encoder writes maps in key order, so any other order would re-encode
/// to other bytes).
template <class Map, class Key, class Value>
void append_sorted(KvReader& c, Map& map, const Key& key, const Value& value,
                   const char* what) {
  if (!c.ok()) return;
  if (!map.empty() && !(map.rbegin()->first < key))
    c.fail(std::string("out-of-order or duplicate ") + what);
  else
    map.emplace_hint(map.end(), key, value);
}

/// Splits "header\n<marker>\n<raw tail>": the header lines before the
/// marker (with their final '\n') go to `head`, the raw bytes to `tail`.
bool split_tail(std::string_view payload, std::string_view marker,
                std::string_view& head, std::string_view& tail) {
  const std::string needle = "\n" + std::string(marker) + "\n";
  const auto at = payload.find(needle);
  if (at == std::string_view::npos) return false;
  head = payload.substr(0, at + 1);
  tail = payload.substr(at + needle.size());
  return true;
}

/// Fills `error` from a failed reader; nullopt for the caller to return.
std::nullopt_t failed(const KvReader& c, std::string* error) {
  if (error) *error = c.error();
  return std::nullopt;
}

constexpr std::string_view kSpecMarker = "--- spec ---";
constexpr std::string_view kPayloadMarker = "--- payload ---";
constexpr std::string_view kErrorMarker = "--- error ---";

constexpr std::uint64_t kNumOutcomes = 3;   // rtlfi::Outcome
constexpr std::uint64_t kNumStages = 6;     // rtl::PipeStage
constexpr std::uint64_t kNumRoles = 2;      // rtl::FieldRole
constexpr std::uint64_t kNumOpcodes = isa::kNumOpcodes;

}  // namespace

// ---------------------------------------------------------------------------
// Control messages.
// ---------------------------------------------------------------------------

std::string encode_hello(const Hello& h) {
  std::string out;
  put_kv(out, "version", h.version);
  put_kv(out, "name", h.name);
  put_kv(out, "pid", h.pid);
  return out;
}

std::optional<Hello> decode_hello(std::string_view payload) {
  KvReader c(payload);
  Hello h;
  h.version = take<std::uint32_t>(c, "version");
  h.name = std::string(c.take("name"));
  h.pid = c.take_u64("pid");
  if (!c.ok() || !c.at_end()) return std::nullopt;
  return h;
}

std::string encode_shard_request(const ShardRequest& r) {
  std::string out;
  put_kv(out, "job", r.job);
  put_kv(out, "shard", r.shard_index);
  put_kv(out, "n_shards", r.n_shards);
  put_kv(out, "offset", r.trial_offset);
  put_kv(out, "count", r.trial_count);
  put_kv(out, "final", r.final_payload ? 1 : 0);
  out += kSpecMarker;
  out += '\n';
  out += serve::encode_spec(r.spec);
  return out;
}

std::optional<ShardRequest> decode_shard_request(std::string_view payload,
                                                 std::string* error) {
  std::string_view head, spec_bytes;
  const bool marked = split_tail(payload, kSpecMarker, head, spec_bytes);
  KvReader c(head);
  if (!marked) c.fail("missing spec marker");
  ShardRequest r;
  r.job = c.take_u64("job");
  r.shard_index = take<std::uint32_t>(c, "shard");
  r.n_shards = take<std::uint32_t>(c, "n_shards");
  r.trial_offset = c.take_u64("offset");
  r.trial_count = c.take_u64("count");
  r.final_payload = flag(c, c.take_u64("final"));
  if (!c.at_end()) c.fail("unexpected shard-request key");
  std::string spec_err;
  if (c.ok()) {
    if (const auto spec = serve::decode_spec(spec_bytes, &spec_err))
      r.spec = *spec;
    else
      c.fail("bad spec: " + spec_err);
  }
  if (!c.ok()) return failed(c, error);
  return r;
}

namespace {

/// ShardResult and ShardError share one shape: the job and shard ids, then
/// a marker line and raw bytes (a payload or an error text).
std::string encode_reply(std::uint64_t job, std::uint32_t shard,
                         std::string_view marker, std::string_view tail) {
  std::string out;
  put_kv(out, "job", job);
  put_kv(out, "shard", shard);
  out += marker;
  out += '\n';
  out += tail;
  return out;
}

template <class Msg>
std::optional<Msg> decode_reply(std::string_view payload,
                                std::string_view marker) {
  std::string_view head, tail;
  if (!split_tail(payload, marker, head, tail)) return std::nullopt;
  KvReader c(head);
  Msg m;
  m.job = c.take_u64("job");
  m.shard_index = take<std::uint32_t>(c, "shard");
  if (!c.ok() || !c.at_end()) return std::nullopt;
  if constexpr (std::is_same_v<Msg, ShardResultMsg>)
    m.payload = std::string(tail);
  else
    m.error = std::string(tail);
  return m;
}

}  // namespace

std::string encode_shard_result(const ShardResultMsg& m) {
  return encode_reply(m.job, m.shard_index, kPayloadMarker, m.payload);
}

std::optional<ShardResultMsg> decode_shard_result(std::string_view payload) {
  return decode_reply<ShardResultMsg>(payload, kPayloadMarker);
}

std::string encode_shard_error(const ShardErrorMsg& m) {
  return encode_reply(m.job, m.shard_index, kErrorMarker, m.error);
}

std::optional<ShardErrorMsg> decode_shard_error(std::string_view payload) {
  return decode_reply<ShardErrorMsg>(payload, kErrorMarker);
}

std::string encode_shard_progress(const ShardProgressMsg& m) {
  std::string out;
  put_kv(out, "job", m.job);
  put_kv(out, "shard", m.shard_index);
  put_kv(out, "done", m.done);
  put_kv(out, "total", m.total);
  return out;
}

std::optional<ShardProgressMsg> decode_shard_progress(
    std::string_view payload) {
  KvReader c(payload);
  ShardProgressMsg m;
  m.job = c.take_u64("job");
  m.shard_index = take<std::uint32_t>(c, "shard");
  m.done = c.take_u64("done");
  m.total = c.take_u64("total");
  if (!c.ok() || !c.at_end()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------------------
// RTL partial.
// ---------------------------------------------------------------------------

std::string encode_rtl_partial(const rtlfi::CampaignResult& r) {
  std::string out;
  put_kv(out, "v", 1);
  put_kv(out, "injected", r.injected);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc_single", r.sdc_single);
  put_kv(out, "sdc_multi", r.sdc_multi);
  put_kv(out, "due", r.due);
  put_kv(out, "golden_cycles", r.golden_cycles);
  put_kv(out, "converged_early", r.converged_early);
  put_kv(out, "records", r.records.size());
  for (const auto& rec : r.records) {
    put_fields(out, "r", rec.fault.module, rec.fault.bit, rec.fault.cycle,
               rec.fault.model, rec.fault.duration, rec.fault.period,
               rec.role, rec.outcome, rec.due_reason_code,
               rec.corrupted_elements, rec.corrupted_threads, rec.site.live,
               rec.site.dyn_index, rec.site.pc, rec.site.cta, rec.site.warp,
               rec.site.op, rec.site.stage, rec.site.unit_busy,
               rec.diffs.size());
    put_kv(out, "f", rec.field);
    put_kv(out, "w", rec.due_reason);
    for (const auto& d : rec.diffs)
      put_fields(out, "d", d.index, d.golden, d.faulty,
                 double_bits(d.rel_error), d.bits_flipped);
  }
  put_kv(out, "attrs", r.attribution.size());
  for (const auto& [key, counts] : r.attribution)
    put_fields(out, "a", key.live, key.pc, key.op, counts.hits,
               counts.masked, counts.sdc_single, counts.sdc_multi, counts.due,
               counts.due_by_reason);
  return out;
}

std::optional<rtlfi::CampaignResult> decode_rtl_partial(
    std::string_view payload, std::string* error) {
  KvReader c(payload);
  rtlfi::CampaignResult r;
  if (c.take_u64("v") != 1) c.fail("unknown rtl partial version");
  r.injected = c.take_u64("injected");
  r.masked = c.take_u64("masked");
  r.sdc_single = c.take_u64("sdc_single");
  r.sdc_multi = c.take_u64("sdc_multi");
  r.due = c.take_u64("due");
  r.golden_cycles = c.take_u64("golden_cycles");
  r.converged_early = c.take_u64("converged_early");
  const auto n_records = c.take_u64("records");
  for (std::uint64_t i = 0; c.ok() && i < n_records; ++i) {
    rtlfi::InjectionRecord rec;
    Fields f{c.take("r"), &c};
    rec.fault.module = f.next_enum<rtl::Module>(rtl::kNumModules, "module");
    rec.fault.bit = f.next<std::uint32_t>();
    rec.fault.cycle = f.next();
    rec.fault.model =
        f.next_enum<rtl::FaultModel>(rtl::kNumFaultModels, "fault model");
    rec.fault.duration = f.next();
    rec.fault.period = f.next();
    rec.role = f.next_enum<rtl::FieldRole>(kNumRoles, "role");
    rec.outcome = f.next_enum<rtlfi::Outcome>(kNumOutcomes, "outcome");
    rec.due_reason_code =
        f.next_enum<vocab::DueReason>(vocab::kNumDueReasons, "due reason");
    rec.corrupted_elements = f.next<unsigned>();
    rec.corrupted_threads = f.next<unsigned>();
    rec.site.live = f.next_flag();
    rec.site.dyn_index = f.next();
    rec.site.pc = f.next();
    rec.site.cta = f.next<std::uint32_t>();
    rec.site.warp = f.next<std::uint32_t>();
    rec.site.op = f.next_enum<isa::Opcode>(kNumOpcodes, "opcode");
    rec.site.stage = f.next_enum<rtl::PipeStage>(kNumStages, "stage");
    rec.site.unit_busy = f.next_flag();
    const auto n_diffs = f.next();
    f.done();
    rec.field = std::string(c.take("f"));
    rec.due_reason = std::string(c.take("w"));
    for (std::uint64_t j = 0; c.ok() && j < n_diffs; ++j) {
      rtlfi::ElementDiff d;
      Fields df{c.take("d"), &c};
      d.index = df.next<std::uint32_t>();
      d.golden = df.next<std::uint32_t>();
      d.faulty = df.next<std::uint32_t>();
      d.rel_error = bits_double(df.next());
      d.bits_flipped = df.next<unsigned>();
      df.done();
      rec.diffs.push_back(d);
    }
    r.records.push_back(std::move(rec));
  }
  const auto n_attrs = c.take_u64("attrs");
  for (std::uint64_t i = 0; c.ok() && i < n_attrs; ++i) {
    Fields f{c.take("a"), &c};
    attr::SiteKey key;
    key.live = f.next_flag();
    key.pc = f.next();
    key.op = f.next_enum<isa::Opcode>(kNumOpcodes, "opcode");
    attr::SiteCounts counts;
    counts.hits = f.next();
    counts.masked = f.next();
    counts.sdc_single = f.next();
    counts.sdc_multi = f.next();
    counts.due = f.next();
    for (auto& n : counts.due_by_reason) n = f.next();
    f.done();
    append_sorted(c, r.attribution, key, counts, "attribution site");
  }
  if (!c.at_end()) c.fail("trailing rtl partial bytes");
  if (!c.ok()) return failed(c, error);
  return r;
}

// ---------------------------------------------------------------------------
// SW partial.
// ---------------------------------------------------------------------------

std::string encode_sw_partial(const swfi::Result& r) {
  std::string out;
  put_kv(out, "v", 1);
  put_kv(out, "injections", r.injections);
  put_kv(out, "masked", r.masked);
  put_kv(out, "sdc", r.sdc);
  put_kv(out, "due", r.due);
  put_kv(out, "candidates", r.candidate_instructions);
  put_fields(out, "pc_counts", r.pc_exec_counts.size(), r.pc_exec_counts);
  put_kv(out, "sites", r.sites.size());
  for (const auto& [key, counts] : r.sites)
    put_fields(out, "s", key.first, key.second, counts.hits, counts.masked,
               counts.sdc, counts.due);
  return out;
}

std::optional<swfi::Result> decode_sw_partial(std::string_view payload,
                                              std::string* error) {
  KvReader c(payload);
  swfi::Result r;
  if (c.take_u64("v") != 1) c.fail("unknown sw partial version");
  r.injections = c.take_u64("injections");
  r.masked = c.take_u64("masked");
  r.sdc = c.take_u64("sdc");
  r.due = c.take_u64("due");
  r.candidate_instructions = c.take_u64("candidates");
  {
    Fields f{c.take("pc_counts"), &c};
    const auto n = f.next();
    // Each count takes at least two bytes: a larger n is a lie, not a size.
    if (n > f.rest.size()) c.fail("bad pc_counts length");
    for (std::uint64_t i = 0; c.ok() && i < n; ++i)
      r.pc_exec_counts.push_back(f.next());
    f.done();
  }
  const auto n_sites = c.take_u64("sites");
  for (std::uint64_t i = 0; c.ok() && i < n_sites; ++i) {
    Fields f{c.take("s"), &c};
    const auto pc = f.next<std::int32_t>();
    const auto op = f.next_enum<isa::Opcode>(kNumOpcodes, "opcode");
    swfi::SwSiteCounts counts;
    counts.hits = f.next();
    counts.masked = f.next();
    counts.sdc = f.next();
    counts.due = f.next();
    f.done();
    append_sorted(c, r.sites, std::make_pair(pc, op), counts, "sw site");
  }
  if (!c.at_end()) c.fail("trailing sw partial bytes");
  if (!c.ok()) return failed(c, error);
  return r;
}

}  // namespace gpufi::fabric
