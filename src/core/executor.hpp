// Asynchronous state-machine execution for deployments that split a
// replica across a network thread and an execution thread.
//
// The replica stays single-threaded in its own view: it submits at most
// one batch at a time (the commands of one committed consensus instance)
// and does not touch the state machine again until the completion callback
// has run — the implementation must invoke `done` back on the replica's
// runtime thread. That one-in-flight contract is what makes the handoff a
// plain SPSC exchange and keeps snapshot()/restore() (state transfer)
// safe without locking inside the state machine.
//
// Simulation never sets an executor (IdemConfig::executor == nullptr), so
// the deterministic trajectories are untouched; real deployments opt in
// per replica (real::ExecutionThread).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "app/state_machine.hpp"
#include "common/time.hpp"

namespace idem::core {

class Executor {
 public:
  virtual ~Executor() = default;

  /// `done(results)` receives one result per command, in order, and must be
  /// invoked on the submitting replica's runtime thread.
  using Done = std::function<void(std::vector<std::vector<std::byte>> results)>;

  /// Executes `commands` against `sm` in order, then reports back. The
  /// caller guarantees no concurrent access to `sm` and no further
  /// execute() call until `done` has run. `due` is the earliest deadline of
  /// any command in the batch (0 = none): an executor shared by several
  /// submitters serves pending batches earliest-due first, mirroring the
  /// EDF service discipline of the delivery path; with a single submitter
  /// the one-in-flight contract makes it moot.
  virtual void execute(app::StateMachine& sm, std::vector<std::vector<std::byte>> commands,
                       Time due, Done done) = 0;
};

}  // namespace idem::core
