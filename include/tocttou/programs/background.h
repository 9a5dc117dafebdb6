// Deterministic multi-tenant background workload generators.
//
// The paper's testbeds run exactly one victim and one attacker; a real
// shared host runs thousands of tenant processes whose request churn is
// the scheduling noise that widens (or narrows) the attacker's window.
// These programs model that load as first-class sim::Programs: every
// action, path, and think time is drawn from the kernel's deterministic
// Rng stream, so a round with tenants is exactly as reproducible as one
// without — byte-identical at any --jobs, checkpoint-clonable, and
// canonically hashable (DESIGN.md §11).
//
// Tenants never exit: a round ends when the victim exits, and the
// harness never waits on tenant pids. They are spawned AFTER the victim
// (and before ScenarioConfig::extra_programs), so victim/attacker pids —
// and therefore journals, traces, and schedule tokens — are untouched
// when the spec is empty.
#pragma once

#include <cstdint>
#include <string>

#include "tocttou/common/path.h"
#include "tocttou/common/time.h"
#include "tocttou/fs/types.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sim/fields.h"

namespace tocttou::sim {
class Kernel;
}

namespace tocttou::programs {

/// Tenant-load shape for one scenario. Parsed from the CLI's
/// --background=SPEC (see parse()) and carried on
/// core::ScenarioConfig::background. An empty() spec stages nothing,
/// spawns nothing, and leaves scenario_fingerprint() untouched.
struct BackgroundSpec {
  int web_servers = 0;   ///< request-churn servers over /srv/www
  int cron_daemons = 0;  ///< periodic burst daemons reading /etc/crontab
  int build_jobs = 0;    ///< compile-write-unlink churn under /tmp/build
  int log_writers = 0;   ///< append-mostly writers under /var/log
  /// Work multiplier >= 1: scales every tenant's compute bursts and I/O
  /// sizes (the "load intensity" axis of the tenancy sweep).
  int intensity = 1;
  /// Shared docroot files staged under /srv/www for the web servers.
  int docroot_files = 32;
  /// Extra inodes pre-staged under /srv/data to bring the tree to
  /// machine scale (O(10^5)) without needing tenants to create them.
  std::uint64_t prestage_inodes = 0;

  int total_processes() const {
    return web_servers + cron_daemons + build_jobs + log_writers;
  }
  bool operator==(const BackgroundSpec&) const = default;
  bool empty() const { return total_processes() == 0 && prestage_inodes == 0; }

  /// Canonical one-line form, e.g. "web=8,cron=2,build=4,log=4,
  /// intensity=2,docroot=32,inodes=0". Stable across versions: it is the
  /// exact string scenario_fingerprint() folds in when the spec is
  /// non-empty, so reordering or renaming fields would orphan every
  /// previously minted schedule token of a tenant scenario.
  std::string describe() const;

  /// Parses "k=v,k=v,..." with keys web, cron, build, log, intensity,
  /// docroot, inodes — plus the shorthand procs=N, which deals N tenants
  /// out as N/2 web, N/4 log, N/8 build, and the remainder cron.
  /// Returns false (and sets *err) on unknown keys or bad values.
  static bool parse(const std::string& spec, BackgroundSpec* out,
                    std::string* err);
};

/// Stages the tenant tree: /srv/www docroot, /srv/data pre-staged
/// inodes, /tmp/build, /var/log files, /etc/crontab. Instantaneous
/// setup, root-owned where tenants only read. Idempotent per round
/// (called once by the harness before spawning tenants).
void stage_background_tree(fs::Vfs& vfs, const BackgroundSpec& spec);

/// Spawns spec.total_processes() tenants into the kernel, uids 10000+i,
/// names "www/N", "cron/N", "build/N", "log/N". Call after the victim so
/// victim/attacker pids stay stable.
void spawn_background_tenants(sim::Kernel& kernel, fs::Vfs& vfs,
                              const BackgroundSpec& spec);

/// Web server tenant: think, then serve one request — stat a docroot
/// file, open, read, close, parse (compute). Request targets and think
/// times come from the kernel Rng.
class WebServerTenant final
    : public sim::Listed<WebServerTenant, sim::Program> {
 public:
  WebServerTenant(fs::Vfs& vfs, int docroot_files, int intensity);

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.docroot_files_, self.intensity_,
                    self.phase_, self.target_, self.stat_out_, self.stat_err_,
                    self.open_out_, self.io_err_);
  }

 private:
  enum class Phase { think, stat, open, read, close, parse };
  fs::Vfs* vfs_;
  int docroot_files_;
  int intensity_;
  Phase phase_ = Phase::think;
  int target_ = 0;
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
  fs::OpenResult open_out_;
  Errno io_err_ = Errno::ok;
};

/// Cron daemon: sleep a fixed period, read /etc/crontab, then run an
/// intensity-scaled compute burst (the "job").
class CronDaemon final : public sim::Listed<CronDaemon, sim::Program> {
 public:
  CronDaemon(fs::Vfs& vfs, int intensity);

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.intensity_, self.phase_, self.stat_out_,
                    self.stat_err_, self.open_out_, self.io_err_);
  }

 private:
  enum class Phase { sleep, stat, open, read, close, job };
  fs::Vfs* vfs_;
  int intensity_;
  Phase phase_ = Phase::sleep;
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
  fs::OpenResult open_out_;
  Errno io_err_ = Errno::ok;
};

/// Build job: compile (compute), emit an object file under /tmp/build
/// (open O_CREAT, write, close), unlink it, repeat — fan-out churn on a
/// shared directory's entries and i_sem.
class BuildJob final : public sim::Listed<BuildJob, sim::Program> {
 public:
  BuildJob(fs::Vfs& vfs, int slot, int intensity);

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.slot_, self.intensity_, self.phase_,
                    self.open_out_, self.io_err_);
  }

 private:
  enum class Phase { compile, open, write, close, unlink, idle };
  Path object_path() const;
  fs::Vfs* vfs_;
  int slot_;
  int intensity_;
  Phase phase_ = Phase::compile;
  fs::OpenResult open_out_;
  Errno io_err_ = Errno::ok;
};

/// Log writer: sleep an interval, append an intensity-scaled record to
/// its /var/log file, repeat.
class LogWriter final : public sim::Listed<LogWriter, sim::Program> {
 public:
  LogWriter(fs::Vfs& vfs, int slot, int intensity);

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.slot_, self.intensity_, self.phase_,
                    self.open_out_, self.io_err_);
  }

 private:
  enum class Phase { sleep, open, write, close };
  Path log_path() const;
  fs::Vfs* vfs_;
  int slot_;
  int intensity_;
  Phase phase_ = Phase::sleep;
  fs::OpenResult open_out_;
  Errno io_err_ = Errno::ok;
};

}  // namespace tocttou::programs
