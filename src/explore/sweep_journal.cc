#include "tocttou/explore/sweep_journal.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "tocttou/common/binio.h"
#include "tocttou/common/crc32.h"
#include "tocttou/common/strings.h"

namespace tocttou::explore {

namespace {

constexpr char kMagic[] = "TSWPJRN1";  // 8 bytes, no terminator on disk
constexpr std::size_t kMagicLen = 8;
constexpr std::uint32_t kVersion = 1;
// One record's payload is bounded by a batch of kWaveBatch leaves, each
// a few hundred bytes; 256 MiB is far past anything legitimate and stops
// a corrupt length field from driving a giant allocation.
constexpr std::uint32_t kMaxPayload = 256u << 20;

void put_meta(ByteWriter* w, const SweepJournal::Meta& m) {
  w->u32(m.fingerprint);
  w->u64(m.seed);
  w->u8(m.mode);
  w->u32(static_cast<std::uint32_t>(m.think_buckets));
  w->u32(static_cast<std::uint32_t>(m.preemption_bound));
  w->u32(static_cast<std::uint32_t>(m.max_schedules));
  w->u8(1);  // retired sleep-set flag: always 1, discarded on read
  w->i64(m.think_ns);
  w->u64(m.step_budget);
  w->u32(static_cast<std::uint32_t>(m.pct_depth));
  w->u32(static_cast<std::uint32_t>(m.pct_schedules));
  w->u32(static_cast<std::uint32_t>(m.pct_expected_steps));
  w->u64(m.pct_seed);
}

SweepJournal::Meta get_meta(ByteReader* r) {
  SweepJournal::Meta m;
  m.fingerprint = r->u32();
  m.seed = r->u64();
  m.mode = r->u8();
  m.think_buckets = static_cast<std::int32_t>(r->u32());
  m.preemption_bound = static_cast<std::int32_t>(r->u32());
  m.max_schedules = static_cast<std::int32_t>(r->u32());
  r->u8();  // retired sleep-set flag
  m.think_ns = r->i64();
  m.step_budget = r->u64();
  m.pct_depth = static_cast<std::int32_t>(r->u32());
  m.pct_schedules = static_cast<std::int32_t>(r->u32());
  m.pct_expected_steps = static_cast<std::int32_t>(r->u32());
  m.pct_seed = r->u64();
  return m;
}

void put_choice(ByteWriter* w, const Choice& c) {
  w->u8(static_cast<std::uint8_t>(c.kind));
  w->u16(c.chosen);
  w->u16(c.n);
}

Choice get_choice(ByteReader* r) {
  Choice c;
  c.kind = static_cast<ChoiceKind>(r->u8());
  c.chosen = r->u16();
  c.n = r->u16();
  return c;
}

void put_leaf(ByteWriter* w, const LeafRecord& o) {
  const std::uint8_t flags = (o.prefix_ok ? 1u : 0u) |
                             (o.success ? 2u : 0u) |
                             (o.window_us ? 4u : 0u);
  w->u8(flags);
  w->u8(static_cast<std::uint8_t>(o.error));
  if (o.window_us) w->f64(*o.window_us);
  w->u32(static_cast<std::uint32_t>(o.choices.size()));
  for (const Choice& c : o.choices) put_choice(w, c);
  w->u32(static_cast<std::uint32_t>(o.sites.size()));
  for (const SiteRecord& s : o.sites) {
    put_choice(w, s.choice);
    w->u16(s.policy);
    w->u32(static_cast<std::uint32_t>(s.options.size()));
    for (sim::Pid p : s.options) w->u32(p);
    // Retired per-option commute flags: one zero byte per option, so
    // version-1 journals keep their layout. Readers discard them.
    w->u32(static_cast<std::uint32_t>(s.options.size()));
    for (std::size_t j = 0; j < s.options.size(); ++j) w->u8(0);
  }
  w->u32(static_cast<std::uint32_t>(o.site_events.size()));
  for (std::uint64_t e : o.site_events) w->u64(e);
  w->u32(static_cast<std::uint32_t>(o.pct_procs));
  w->u32(static_cast<std::uint32_t>(o.pct_steps));
}

LeafRecord get_leaf(ByteReader* r) {
  LeafRecord o;
  const std::uint8_t flags = r->u8();
  o.prefix_ok = (flags & 1u) != 0;
  o.success = (flags & 2u) != 0;
  o.error = static_cast<ErrorKind>(r->u8());
  if ((flags & 4u) != 0) o.window_us = r->f64();
  const std::uint32_t n_choices = r->u32();
  for (std::uint32_t i = 0; i < n_choices && r->ok(); ++i) {
    o.choices.push_back(get_choice(r));
  }
  const std::uint32_t n_sites = r->u32();
  for (std::uint32_t i = 0; i < n_sites && r->ok(); ++i) {
    SiteRecord s;
    s.choice = get_choice(r);
    s.policy = r->u16();
    const std::uint32_t n_opts = r->u32();
    for (std::uint32_t j = 0; j < n_opts && r->ok(); ++j) {
      s.options.push_back(r->u32());
    }
    const std::uint32_t n_comm = r->u32();
    for (std::uint32_t j = 0; j < n_comm && r->ok(); ++j) r->u8();
    o.sites.push_back(std::move(s));
  }
  const std::uint32_t n_events = r->u32();
  for (std::uint32_t i = 0; i < n_events && r->ok(); ++i) {
    o.site_events.push_back(r->u64());
  }
  o.pct_procs = static_cast<int>(r->u32());
  o.pct_steps = static_cast<int>(r->u32());
  return o;
}

}  // namespace

struct SweepJournal::Impl {
  std::ofstream out;
};

SweepJournal::~SweepJournal() = default;

void SweepJournal::append_record(const std::string& payload) {
  if (!error_.empty()) return;  // latched: no further writes
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload));
  frame.bytes(payload);
  impl_->out.write(frame.data().data(),
                   static_cast<std::streamsize>(frame.data().size()));
  impl_->out.flush();
  if (!impl_->out.good()) {
    error_ = strfmt("write to %s failed (disk full?)", path_.c_str());
  }
}

void SweepJournal::append_batch(
    const std::vector<std::pair<std::string, const LeafRecord*>>& leaves) {
  if (leaves.empty()) return;
  ByteWriter w;
  w.u8('B');
  w.u32(static_cast<std::uint32_t>(leaves.size()));
  for (const auto& [key, leaf] : leaves) {
    w.str(key);
    put_leaf(&w, *leaf);
  }
  append_record(w.data());
  if (error_.empty()) ++batches_;
}

void SweepJournal::append_stop(std::uint64_t rounds_executed) {
  ByteWriter w;
  w.u8('S');
  w.u64(rounds_executed);
  append_record(w.data());
}

std::unique_ptr<SweepJournal> SweepJournal::create(const std::string& path,
                                                   const Meta& meta,
                                                   std::string* err) {
  std::unique_ptr<SweepJournal> j(new SweepJournal);
  j->path_ = path;
  j->impl_ = std::make_unique<Impl>();
  j->impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!j->impl_->out.is_open()) {
    if (err != nullptr) *err = strfmt("cannot create %s", path.c_str());
    return nullptr;
  }
  j->impl_->out.write(kMagic, static_cast<std::streamsize>(kMagicLen));
  ByteWriter w;
  w.u8('H');
  w.u32(kVersion);
  put_meta(&w, meta);
  j->append_record(w.data());
  if (!j->ok()) {
    if (err != nullptr) *err = j->error();
    return nullptr;
  }
  return j;
}

std::unique_ptr<SweepJournal> SweepJournal::resume(
    const std::string& path, const Meta& meta,
    std::vector<std::pair<std::string, LeafRecord>>* out, std::string* err) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    // Nothing to resume from: start fresh so kill/resume loops are
    // idempotent (the first iteration simply has no prior progress).
    return create(path, meta, err);
  }
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      if (err != nullptr) *err = strfmt("cannot read %s", path.c_str());
      return nullptr;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    buf = std::move(ss).str();
  }
  if (buf.size() < kMagicLen ||
      buf.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    if (err != nullptr) {
      *err = strfmt("%s is not a sweep journal (bad magic)", path.c_str());
    }
    return nullptr;
  }

  // Walk the records. `valid_end` tracks the byte offset of the last
  // fully intact record; anything after it is a torn tail to truncate.
  std::size_t off = kMagicLen;
  std::size_t valid_end = off;
  bool saw_header = false;
  while (buf.size() - off >= 8) {
    ByteReader fr(std::string_view(buf).substr(off, 8));
    const std::uint32_t len = fr.u32();
    const std::uint32_t want_crc = fr.u32();
    if (len > kMaxPayload || buf.size() - off - 8 < len) break;
    const std::string_view payload(buf.data() + off + 8, len);
    if (crc32(payload) != want_crc) break;
    ByteReader r(payload);
    const std::uint8_t type = r.u8();
    if (!saw_header) {
      // The header must come first and must match this exploration.
      if (type != 'H') break;
      const std::uint32_t version = r.u32();
      const Meta got = get_meta(&r);
      if (!r.done() || version != kVersion) break;
      if (!(got == meta)) {
        if (err != nullptr) {
          *err = strfmt(
              "%s was written by a different exploration (scenario or "
              "explore flags changed); delete it or pick another path",
              path.c_str());
        }
        return nullptr;
      }
      saw_header = true;
    } else if (type == 'B') {
      std::vector<std::pair<std::string, LeafRecord>> batch;
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        std::string key(r.str());
        batch.emplace_back(std::move(key), get_leaf(&r));
      }
      if (!r.done()) break;  // unparseable payload: treat as torn
      if (out != nullptr) {
        for (auto& kv : batch) out->push_back(std::move(kv));
      }
    } else if (type == 'S') {
      // Graceful-stop marker: informational, nothing to load.
    } else {
      break;  // unknown record type: written by a future version
    }
    off += 8 + len;
    valid_end = off;
  }
  if (!saw_header) {
    if (err != nullptr) {
      *err = strfmt("%s has no intact journal header", path.c_str());
    }
    return nullptr;
  }

  if (valid_end < buf.size()) {
    std::filesystem::resize_file(path, valid_end, ec);
    if (ec) {
      if (err != nullptr) {
        *err = strfmt("cannot truncate torn tail of %s: %s", path.c_str(),
                      ec.message().c_str());
      }
      return nullptr;
    }
  }

  std::unique_ptr<SweepJournal> j(new SweepJournal);
  j->path_ = path;
  j->impl_ = std::make_unique<Impl>();
  j->impl_->out.open(path, std::ios::binary | std::ios::app);
  if (!j->impl_->out.is_open()) {
    if (err != nullptr) *err = strfmt("cannot append to %s", path.c_str());
    return nullptr;
  }
  return j;
}

}  // namespace tocttou::explore
