// Online scheduling of flexible jobs: a job becomes known at its release
// time (with size, processing length and deadline) and the scheduler may
// DEFER its start, but no later than deadline - length. Bins follow the
// online server model (close forever when empty). This is the online side
// of the paper's §6 flexible-jobs extension.
//
// The simulator is event-driven: at every event (job release, departure,
// forced-start deadline) the policy reconsiders all pending jobs. A job
// whose latest start time has come starts now whatever the policy says:
// in the policy's bin when it starts the job, in a fresh bin when it
// defers it. Each start goes through the shared placement step
// (sim/placement_core.hpp), which also drains departures.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/packing.hpp"
#include "flexible/flexible_job.hpp"
#include "sim/placement_view.hpp"

namespace cdbp {

/// A policy decision for one pending job at one instant.
struct FlexDecision {
  bool startNow = false;
  /// Target bin when starting (kNewBin opens a fresh bin). Ignored when
  /// deferring.
  BinId bin = kNewBin;

  static FlexDecision defer() { return {false, kNewBin}; }
  static FlexDecision start(BinId bin) { return {true, bin}; }
  static FlexDecision startFresh() { return {true, kNewBin}; }
};

class FlexOnlinePolicy {
 public:
  virtual ~FlexOnlinePolicy() = default;
  virtual std::string name() const = 0;

  /// Called for each pending job (release order) at every event time.
  /// `now` >= job.release; the job can still be deferred iff
  /// now < job.latestStart(). Placement queries go through the view, so
  /// they are answered by whichever engine the simulation selected.
  virtual FlexDecision consider(const PlacementView& view,
                                const FlexibleJob& job, Time now) = 0;

  /// Notification after every successful start (policies tracking per-bin
  /// state override this; default no-op).
  virtual void onPlaced(BinId /*bin*/, Time /*departure*/) {}

  virtual void reset() {}
};

/// Baseline: start every job immediately at release, First Fit bin choice
/// (ignores the scheduling flexibility entirely).
class FlexStartAsapFF : public FlexOnlinePolicy {
 public:
  std::string name() const override { return "Flex-ASAP-FF"; }
  FlexDecision consider(const PlacementView& view, const FlexibleJob& job,
                        Time now) override;
};

/// Defer-to-align: start a job early only when some open bin offers a
/// zero-marginal-usage slot (it fits now and the bin's latest known
/// departure already covers now + length); otherwise wait. Jobs that never
/// find such a slot start at their forced deadline.
class FlexDeferAlign : public FlexOnlinePolicy {
 public:
  std::string name() const override { return "Flex-DeferAlign"; }
  FlexDecision consider(const PlacementView& view, const FlexibleJob& job,
                        Time now) override;
  void reset() override { binEnds_.clear(); }
  void onPlaced(BinId bin, Time departure) override;

 private:
  std::vector<Time> binEnds_;  // indexed by BinId
};

struct FlexOnlineResult {
  std::vector<Time> starts;
  std::shared_ptr<const Instance> fixedInstance;
  Packing packing;
  Time totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t forcedStarts = 0;  ///< jobs started exactly at their latest start time

  std::optional<std::string> validate(const FlexibleInstance& instance) const;
};

struct FlexSimOptions {
  /// Placement engine selection; both engines produce bit-identical
  /// schedules and packings (the flexible differential suite pins this).
  PlacementEngine engine = PlacementEngine::kIndexed;
};

/// Runs the event-driven online simulation. Throws std::logic_error when a
/// policy starts a job in a bin that does not exist, is closed or cannot
/// hold the job.
FlexOnlineResult simulateFlexibleOnline(const FlexibleInstance& instance,
                                        FlexOnlinePolicy& policy,
                                        const FlexSimOptions& options = {});

}  // namespace cdbp
