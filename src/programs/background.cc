#include "tocttou/programs/background.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"
#include "tocttou/fs/ops.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::programs {

using sim::Action;
using sim::ProgramContext;

// ---------------------------------------------------------------------------
// BackgroundSpec
// ---------------------------------------------------------------------------

std::string BackgroundSpec::describe() const {
  return strfmt("web=%d,cron=%d,build=%d,log=%d,intensity=%d,docroot=%d,"
                "inodes=%llu",
                web_servers, cron_daemons, build_jobs, log_writers, intensity,
                docroot_files,
                static_cast<unsigned long long>(prestage_inodes));
}

bool BackgroundSpec::parse(const std::string& spec, BackgroundSpec* out,
                           std::string* err) {
  BackgroundSpec s;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (err) *err = "background item '" + item + "' is not key=value";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* end = nullptr;
    const long long n = std::strtoll(val.c_str(), &end, 10);
    if (val.empty() || end == nullptr || *end != '\0' || n < 0) {
      if (err) *err = "background value '" + val + "' is not a count";
      return false;
    }
    if (key == "procs") {
      // Convenience split: a plausible tenant mix for N processes.
      const int total = static_cast<int>(n);
      s.web_servers += total / 2;
      s.log_writers += total / 4;
      s.build_jobs += total / 8;
      s.cron_daemons += total - total / 2 - total / 4 - total / 8;
    } else if (key == "web") {
      s.web_servers = static_cast<int>(n);
    } else if (key == "cron") {
      s.cron_daemons = static_cast<int>(n);
    } else if (key == "build") {
      s.build_jobs = static_cast<int>(n);
    } else if (key == "log") {
      s.log_writers = static_cast<int>(n);
    } else if (key == "intensity") {
      if (n < 1) {
        if (err) *err = "background intensity must be >= 1";
        return false;
      }
      s.intensity = static_cast<int>(n);
    } else if (key == "docroot") {
      if (n < 1) {
        if (err) *err = "background docroot must be >= 1";
        return false;
      }
      s.docroot_files = static_cast<int>(n);
    } else if (key == "inodes") {
      s.prestage_inodes = static_cast<std::uint64_t>(n);
    } else {
      if (err) *err = "unknown background key '" + key + "'";
      return false;
    }
  }
  *out = s;
  return true;
}

// ---------------------------------------------------------------------------
// Staging
// ---------------------------------------------------------------------------

namespace {

/// A short text built in place by concatenation, byte for byte what
/// strfmt's "%s", "%d" and "%llu" would print, without vsnprintf and
/// without an allocation: tenant names, staged leaf paths and
/// per-request paths.
class TextBuf {
 public:
  TextBuf& operator<<(std::string_view s) {
    TOCTTOU_CHECK(s.size() <= sizeof(buf_) - size_, "text too long");
    s.copy(buf_ + size_, s.size());
    size_ += s.size();
    return *this;
  }
  template <class N>
    requires std::is_integral_v<N>
  TextBuf& operator<<(N n) {
    const auto [end, ec] = std::to_chars(buf_ + size_, buf_ + sizeof(buf_), n);
    TOCTTOU_CHECK(ec == std::errc(), "text too long");
    size_ = static_cast<std::size_t>(end - buf_);
    return *this;
  }
  std::string_view view() const { return {buf_, size_}; }

 private:
  char buf_[64];
  std::size_t size_ = 0;
};

/// A request's path, built at its first call and moved into its second:
/// one allocation per request. Building paths at spawn or when a web
/// server draws a target would cost more: a machine-scale round's 256
/// tenants issue about 105 syscalls, so most targets go unrequested.
Path docroot_file(int k) {
  return Path((TextBuf() << "/srv/www/f" << k).view());
}

constexpr const char* kCrontab = "/etc/crontab";

}  // namespace

void stage_background_tree(fs::Vfs& vfs, const BackgroundSpec& spec) {
  if (spec.empty()) return;
  if (spec.web_servers > 0) {
    const fs::Ino www = vfs.mkdir_p("/srv/www", sim::kRootUid, sim::kRootGid);
    for (int k = 0; k < spec.docroot_files; ++k) {
      vfs.create_in(www, "f" + std::to_string(k), fs::FileType::regular,
                    sim::kRootUid, sim::kRootGid, fs::kModeDefaultFile)
          .set_size_bytes(4096);
    }
  }
  if (spec.cron_daemons > 0) {
    vfs.mkdir_p("/etc", sim::kRootUid, sim::kRootGid);
    if (!vfs.exists(kCrontab)) {
      vfs.create_file(kCrontab, sim::kRootUid, sim::kRootGid, fs::kModeDefaultFile,
                      512);
    }
  }
  if (spec.build_jobs > 0) {
    // Sticky-less 0777 scratch dir: every build tenant creates and
    // unlinks its own object files here.
    vfs.mkdir_p("/tmp/build", sim::kRootUid, sim::kRootGid, 0777);
  }
  if (spec.log_writers > 0) {
    const fs::Ino log = vfs.mkdir_p("/var/log", sim::kRootUid, sim::kRootGid);
    for (int k = 0; k < spec.log_writers; ++k) {
      // 0666 so the (non-root) writer tenant may append without owning
      // the file — the classic syslog arrangement.
      vfs.create_in(log, "app" + std::to_string(k) + ".log",
                    fs::FileType::regular, sim::kRootUid, sim::kRootGid, 0666);
    }
  }
  if (spec.prestage_inodes > 0) {
    // Bring the tree to machine scale without per-round tenant work.
    // The layout mirrors a sharded object store (git's objects/, a CAS
    // cache, a maildir farm): an 8-way fan at four directory levels, at
    // most 4096 leaf directories, every file at production path depth,
    // so no single directory becomes the whole machine. Only mkdir_p
    // walks a path: each leaf's, once. Every leaf names its files f0,
    // f1, ..., so the names are formatted once. A leaf allocates its
    // files in that order, so each keeps its inode number, and then
    // links them in name order (f0, f1, f10, ...), so each link appends
    // to the directory's sorted entries instead of moving the names
    // above it.
    vfs.mkdir_p("/srv/data", sim::kRootUid, sim::kRootGid);
    std::uint64_t remaining = spec.prestage_inodes;
    const std::uint64_t want_per_leaf = (spec.prestage_inodes + 4095) / 4096;
    const std::uint64_t per_leaf = want_per_leaf < 32 ? 32 : want_per_leaf;
    const std::uint64_t named = remaining < per_leaf ? remaining : per_leaf;
    std::vector<std::string> names;
    names.reserve(named);
    for (std::uint64_t k = 0; k < named; ++k) {
      names.push_back("f" + std::to_string(k));
    }
    std::vector<std::uint64_t> by_name(named);
    std::iota(by_name.begin(), by_name.end(), 0);
    std::ranges::sort(by_name, {}, [&names](std::uint64_t k) {
      return std::string_view(names[k]);
    });
    for (std::uint64_t leaf = 0; remaining > 0; ++leaf) {
      const fs::Ino dir = vfs.mkdir_p(
          (TextBuf() << "/srv/data/t" << leaf / 512 << "/s" << (leaf / 64) % 8
                     << "/u" << (leaf / 8) % 8 << "/v" << leaf % 8)
              .view(),
          sim::kRootUid, sim::kRootGid);
      const std::uint64_t here = remaining < per_leaf ? remaining : per_leaf;
      const fs::Ino first = vfs.inode_count() + 1;
      for (std::uint64_t k = 0; k < here; ++k) {
        vfs.alloc_inode(fs::FileType::regular, sim::kRootUid, sim::kRootGid,
                        fs::kModeDefaultFile);
      }
      for (const std::uint64_t k : by_name) {
        if (k < here) vfs.link_entry(dir, names[k], first + k);
      }
      remaining -= here;
    }
  }
}

void spawn_background_tenants(sim::Kernel& kernel,
                              const BackgroundSpec& spec) {
  int idx = 0;
  auto opts = [&idx](const char* kind, int k) {
    sim::SpawnOptions o;
    o.name = (TextBuf() << kind << "/" << k).view();
    o.uid = static_cast<sim::Uid>(10000 + idx);
    o.gid = static_cast<sim::Gid>(10000 + idx);
    ++idx;
    return o;
  };
  for (int k = 0; k < spec.web_servers; ++k) {
    kernel.spawn(
        std::make_unique<WebServerTenant>(spec.docroot_files, spec.intensity),
        opts("www", k));
  }
  for (int k = 0; k < spec.cron_daemons; ++k) {
    kernel.spawn(std::make_unique<CronDaemon>(spec.intensity),
                 opts("cron", k));
  }
  for (int k = 0; k < spec.build_jobs; ++k) {
    kernel.spawn(std::make_unique<BuildJob>(k, spec.intensity),
                 opts("build", k));
  }
  for (int k = 0; k < spec.log_writers; ++k) {
    kernel.spawn(std::make_unique<LogWriter>(k, spec.intensity),
                 opts("log", k));
  }
}

// ---------------------------------------------------------------------------
// WebServerTenant
// ---------------------------------------------------------------------------

WebServerTenant::WebServerTenant(int docroot_files, int intensity)
    : docroot_files_(docroot_files), intensity_(intensity) {}

void WebServerTenant::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::open) {
    stat_err_ = r.err;
    if (r.err == Errno::ok) stat_out_ = r.stat;
  } else if (phase_ == Phase::read) {
    open_out_ = {r.fd, r.err};
  } else {
    io_err_ = r.err;
  }
}

Action WebServerTenant::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::think:
        phase_ = Phase::stat;
        target_ = static_cast<int>(ctx.rng.uniform_int(
            0, docroot_files_ > 0 ? docroot_files_ - 1 : 0));
        // Tenants idle most of the time (sub-percent duty cycle), so a
        // thousand of them oversubscribe the run queue in bursts without
        // starving the machine outright — the realistic O(10^3) regime.
        return Action::sleep_for(ctx.rng.uniform_duration(
            Duration::millis(10), Duration::millis(100)));
      case Phase::stat:
        phase_ = Phase::open;
        request_ = docroot_file(target_);
        return Action::service(fs::stat_op(request_));
      case Phase::open:
        phase_ = Phase::read;
        return Action::service(fs::open_op(std::move(request_),
                                           fs::OpenFlags::read_only(),
                                           fs::kModeDefaultFile));
      case Phase::read:
        if (open_out_.err != Errno::ok) {
          // Request failed (e.g. an injected fault); move on.
          phase_ = Phase::think;
          continue;
        }
        phase_ = Phase::close;
        return Action::service(fs::read_op(
            open_out_.fd, 4096ull * static_cast<std::uint64_t>(intensity_)));
      case Phase::close:
        phase_ = Phase::parse;
        return Action::service(fs::close_op(open_out_.fd));
      case Phase::parse:
        phase_ = Phase::think;
        return Action::compute(
            ctx.rng.normal_duration(Duration::micros(20) * intensity_,
                                    Duration::micros(5),
                                    Duration::micros(1)),
            "serve");
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// CronDaemon
// ---------------------------------------------------------------------------

CronDaemon::CronDaemon(int intensity) : intensity_(intensity) {}

void CronDaemon::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::open) {
    stat_err_ = r.err;
    if (r.err == Errno::ok) stat_out_ = r.stat;
  } else if (phase_ == Phase::read) {
    open_out_ = {r.fd, r.err};
  } else {
    io_err_ = r.err;
  }
}

Action CronDaemon::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::sleep:
        phase_ = Phase::stat;
        // Periodic with deterministic jitter so daemons do not phase-lock.
        return Action::sleep_for(
            Duration::millis(50) +
            ctx.rng.uniform_duration(Duration::zero(), Duration::millis(10)));
      case Phase::stat:
        phase_ = Phase::open;
        crontab_ = Path(kCrontab);
        return Action::service(fs::stat_op(crontab_));
      case Phase::open:
        phase_ = Phase::read;
        return Action::service(fs::open_op(std::move(crontab_),
                                           fs::OpenFlags::read_only(),
                                           fs::kModeDefaultFile));
      case Phase::read:
        if (open_out_.err != Errno::ok) {
          phase_ = Phase::sleep;
          continue;
        }
        phase_ = Phase::close;
        return Action::service(fs::read_op(open_out_.fd, 512));
      case Phase::close:
        phase_ = Phase::job;
        return Action::service(fs::close_op(open_out_.fd));
      case Phase::job:
        phase_ = Phase::sleep;
        // The burst: crontab fired, run the job's computation.
        return Action::compute(Duration::micros(100) * intensity_, "cronjob");
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// BuildJob
// ---------------------------------------------------------------------------

BuildJob::BuildJob(int slot, int intensity)
    : slot_(slot), intensity_(intensity) {}

Path BuildJob::object_path() const {
  return Path((TextBuf() << "/tmp/build/obj_" << slot_ << ".o").view());
}

void BuildJob::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::write) {
    open_out_ = {r.fd, r.err};
  } else {
    io_err_ = r.err;
  }
}

Action BuildJob::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::compile:
        phase_ = Phase::open;
        return Action::compute(
            ctx.rng.normal_duration(Duration::micros(150) * intensity_,
                                    Duration::micros(40),
                                    Duration::micros(10)),
            "compile");
      case Phase::open:
        phase_ = Phase::write;
        object_ = object_path();
        return Action::service(fs::open_op(object_,
                                           fs::OpenFlags::write_create_trunc(),
                                           fs::kModeDefaultFile));
      case Phase::write:
        if (open_out_.err != Errno::ok) {
          object_ = Path();  // no unlink follows
          phase_ = Phase::compile;
          continue;
        }
        phase_ = Phase::close;
        return Action::service(fs::write_op(
            open_out_.fd, 8192ull * static_cast<std::uint64_t>(intensity_)));
      case Phase::close:
        phase_ = Phase::unlink;
        return Action::service(fs::close_op(open_out_.fd));
      case Phase::unlink:
        // Clean the object away so the next build re-creates it: sustained
        // create/unlink churn on the shared directory's i_sem.
        phase_ = Phase::idle;
        return Action::service(fs::unlink_op(std::move(object_)));
      case Phase::idle:
        // Between compilation units: blocked on the (unmodeled) source
        // fetch. Keeps a fleet of build jobs bursty instead of CPU-bound.
        phase_ = Phase::compile;
        return Action::sleep_for(ctx.rng.uniform_duration(
            Duration::millis(10), Duration::millis(50)));
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// LogWriter
// ---------------------------------------------------------------------------

LogWriter::LogWriter(int slot, int intensity)
    : slot_(slot), intensity_(intensity) {}

Path LogWriter::log_path() const {
  return Path((TextBuf() << "/var/log/app" << slot_ << ".log").view());
}

void LogWriter::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::write) {
    open_out_ = {r.fd, r.err};
  } else {
    io_err_ = r.err;
  }
}

Action LogWriter::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::sleep:
        phase_ = Phase::open;
        return Action::sleep_for(ctx.rng.uniform_duration(
            Duration::millis(20), Duration::millis(200)));
      case Phase::open: {
        phase_ = Phase::write;
        fs::OpenFlags flags;  // append-style: write, no create/trunc needed
        flags.write = true;
        return Action::service(
            fs::open_op(log_path(), flags, fs::kModeDefaultFile));
      }
      case Phase::write:
        if (open_out_.err != Errno::ok) {
          phase_ = Phase::sleep;
          continue;
        }
        phase_ = Phase::close;
        return Action::service(fs::write_op(
            open_out_.fd, 256ull * static_cast<std::uint64_t>(intensity_)));
      case Phase::close:
        phase_ = Phase::sleep;
        return Action::service(fs::close_op(open_out_.fd));
    }
    return Action::exit_proc();
  }
}

}  // namespace tocttou::programs
