/// \file soc_generator.hpp
/// Seeded synthetic SoC populations for design-space exploration.
///
/// The paper's experiments stop at paper-sized SoCs (~10 cores); the
/// generator produces the 100–1000-core instances the scalability claim
/// actually needs, with chain-length / pattern / BIST distributions in the
/// range of industrial cores (log-uniform sizes, a few very large cores, a
/// long tail of small ones — the shape SOC test-integration practice
/// reports). Output is a plain CoreTestSpec list, directly consumable by
/// sched::SessionScheduler / exact_schedule / BranchBoundScheduler, plus a
/// mapping onto floor::JobSpec so populations can also be streamed through
/// the cycle-accurate test floor.
///
/// ## Determinism contract
/// generate() is a pure function of (root seed, profile, core count,
/// instance): equal inputs yield byte-identical specs, independent of call
/// order — the same derive_stream() discipline the test floor uses.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "floor/job.hpp"
#include "sched/time_model.hpp"

namespace casbus::explore {

/// Named population shapes.
enum class SocProfile {
  Mixed,         ///< industrial mix: ~2/3 scan cores, 1/3 BIST engines
  ScanHeavy,     ///< almost everything scanned, bigger chains & budgets
  BistHeavy,     ///< BIST-dominated (hybrid-BIST style SoCs), long engines
  Hierarchical,  ///< leaf cores clustered into tunneled parent subsystems
};

inline constexpr std::size_t kProfileCount = 4;

/// Stable lowercase name ("mixed", "scan_heavy", "bist_heavy",
/// "hierarchical") — the CLI / bench vocabulary.
[[nodiscard]] const char* profile_name(SocProfile p) noexcept;

/// Inverse of profile_name(); throws PreconditionError on unknown names.
[[nodiscard]] SocProfile profile_from_name(std::string_view name);

/// One synthetic SoC instance.
struct GeneratedSoc {
  std::string name;        ///< "mixed-100#0" style identifier
  SocProfile profile = SocProfile::Mixed;
  std::size_t requested_cores = 0;  ///< leaf cores asked for
  std::vector<sched::CoreTestSpec> cores;  ///< top-level schedulable cores
  unsigned suggested_width = 8;    ///< starting TAM width for sweeps

  [[nodiscard]] std::size_t scan_core_count() const;
  [[nodiscard]] std::size_t bist_core_count() const;
  [[nodiscard]] std::uint64_t total_scan_bits() const;
};

/// Generates reproducible synthetic SoC populations from one root seed.
class SocGenerator {
 public:
  explicit SocGenerator(std::uint64_t root_seed) : seed_(root_seed) {}

  /// Instance \p instance of the (\p cores, \p profile) population. For
  /// SocProfile::Hierarchical, \p cores counts *leaf* cores; the returned
  /// top-level core list is shorter (clusters are tested through a parent
  /// CAS tunnel and scheduled as one aggregate core).
  [[nodiscard]] GeneratedSoc generate(std::size_t cores, SocProfile profile,
                                      std::size_t instance = 0) const;

  /// Maps population (\p profile, instance ids 0..count-1) onto
  /// floor-executable jobs: scenario chosen by profile, strategies cycling
  /// through the executable set including the new BranchBound / Exact, and
  /// core counts clamped to what the cycle-accurate tester synthesizes in
  /// milliseconds. This is the bridge that lets a generated population be
  /// replayed end-to-end through a floor::FloorSession, where these specs
  /// are the submit stream (bench_floor's streaming experiment drives
  /// exactly that).
  [[nodiscard]] std::vector<floor::JobSpec> floor_jobs(
      std::size_t count, SocProfile profile) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace casbus::explore
