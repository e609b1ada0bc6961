// Common exception types for the scalocate library.
//
// All library errors derive from scalocate::Error so callers can catch a
// single type at API boundaries while tests can assert on the specific kind.
#pragma once

#include <stdexcept>
#include <string>

namespace scalocate {

/// Base class for every error thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A function argument violated a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A file could not be read/written or had an unexpected format.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Tensor/layer shapes are incompatible.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error(what) {}
};

/// Marker mixin for errors a caller may meaningfully retry: the failure was
/// a property of the moment (overload, a missed deadline, an injected
/// worker blip), not of the request. api::with_retry retries exactly the
/// errors that carry this mixin; everything else propagates immediately.
/// Deliberately not derived from Error so it composes with any subtype.
class Transient {
 public:
  virtual ~Transient() = default;
};

/// True when `e` carries the Transient mixin (the one retryability test
/// used across the library; see README "Failure model & degradation").
inline bool is_transient(const std::exception& e) {
  return dynamic_cast<const Transient*>(&e) != nullptr;
}

// Every class deriving from Error must be classified: either it carries the
// Transient mixin (retryable) or it is named in the terminal list below.
// tools/scalocate_lint.py parses the list between the two markers and fails
// CI on any unclassified error type, so api::with_retry semantics can never
// silently miss a new exception. Adding a terminal error class means adding
// its name here and a row to the README failure-model table.
//
// scalocate-lint: terminal-errors
//   InvalidArgument, IoError, ShapeError, Cancelled, CorruptSignal,
//   ArtifactError, ArtifactBadMagic, ArtifactVersionMismatch,
//   ArtifactArchMismatch, ArtifactChecksumMismatch
// scalocate-lint: end-terminal-errors

/// A submitted job was cancelled before it ran; surfaces through the job's
/// future (api::SubmitOptions::cancel). Never transient: the caller
/// asked for the abandonment, retrying would resurrect it.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

/// The service refused or shed a job because it was at capacity
/// (AdmissionPolicy::kRejectWhenFull / kShedByDeadline). Transient by
/// definition — back off and retry.
class Overloaded : public Error, public Transient {
 public:
  explicit Overloaded(const std::string& what) : Error(what) {}
};

/// The job's deadline (SubmitOptions::deadline / timeout) passed before a
/// result could be produced; expired-in-queue jobs are rejected cheaply,
/// before they waste a worker. Transient: a retry re-arms the deadline.
class DeadlineExceeded : public Error, public Transient {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Input samples were not finite (NaN/Inf) — a poisoned capture would
/// otherwise propagate through standardization into every score.
/// Not transient: resubmitting the same bytes cannot help.
class CorruptSignal : public Error {
 public:
  explicit CorruptSignal(const std::string& what) : Error(what) {}
};

namespace detail {
/// Throws InvalidArgument with `msg` when `cond` is false.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}
}  // namespace detail

}  // namespace scalocate
