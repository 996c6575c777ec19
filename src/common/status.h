// Status / Result: explicit, exception-free error propagation for all
// fallible operations (cloud I/O, decoding, locking).
//
// Cloud APIs in UniDrive are unreliable by design (the paper measures
// 82.5%-99% request success rates), so every provider call returns a
// Status/Result and callers must decide whether to retry, reroute to another
// cloud, or surface the failure.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace unidrive {

enum class ErrorCode {
  kOk = 0,
  kNotFound,          // file/directory does not exist on the cloud
  kUnavailable,       // transient network/server failure; retry may succeed
  kOutage,            // cloud is down or unreachable (spatial/temporal outage)
  kQuotaExceeded,     // provider storage quota exhausted
  kConflict,          // concurrent-update conflict detected
  kLockContention,    // quorum lock could not be acquired
  kCorrupt,           // data failed integrity/decoding checks
  kInvalidArgument,   // caller error
  kTimeout,           // operation exceeded its deadline
  kUnimplemented,
  kInternal,
};

const char* error_code_name(ErrorCode code) noexcept;

// A cheap value type describing the outcome of an operation.
class Status {
 public:
  Status() noexcept = default;  // OK
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() noexcept { return {}; }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  // Transient errors are worth retrying on the same cloud; permanent ones
  // (quota, not-found) require rerouting or surfacing.
  [[nodiscard]] bool is_transient() const noexcept {
    return code_ == ErrorCode::kUnavailable || code_ == ErrorCode::kTimeout;
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

inline Status make_error(ErrorCode code, std::string message) {
  return Status(code, std::move(message));
}

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {}  // NOLINT
  Result(ErrorCode code, std::string message)
      : v_(Status(code, std::move(message))) {}

  [[nodiscard]] bool is_ok() const noexcept {
    return std::holds_alternative<T>(v_);
  }
  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(v_);
  }
  [[nodiscard]] ErrorCode code() const noexcept {
    return is_ok() ? ErrorCode::kOk : std::get<Status>(v_).code();
  }

  // Precondition: is_ok().
  [[nodiscard]] const T& value() const& { return std::get<T>(v_); }
  [[nodiscard]] T& value() & { return std::get<T>(v_); }
  // On rvalues, value() returns by value so `f().value()` never dangles
  // (e.g. when used as a range-for initializer).
  [[nodiscard]] T value() && { return std::get<T>(std::move(v_)); }
  [[nodiscard]] T&& take() && { return std::get<T>(std::move(v_)); }

  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> v_;
};

// The Status of either outcome type, for code generic over both.
inline const Status& status_of(const Status& status) noexcept {
  return status;
}
template <typename T>
Status status_of(const Result<T>& result) {
  return result.status();
}

// Propagate errors without exceptions:  UNI_RETURN_IF_ERROR(expr);
#define UNI_RETURN_IF_ERROR(expr)                         \
  do {                                                    \
    ::unidrive::Status uni_status_ = (expr);              \
    if (!uni_status_.is_ok()) return uni_status_;         \
  } while (false)

#define UNI_CONCAT_INNER(a, b) a##b
#define UNI_CONCAT(a, b) UNI_CONCAT_INNER(a, b)

#define UNI_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)  \
  auto tmp = (expr);                               \
  if (!tmp.is_ok()) return tmp.status();           \
  lhs = std::move(tmp).take()

#define UNI_ASSIGN_OR_RETURN(lhs, expr) \
  UNI_ASSIGN_OR_RETURN_IMPL(UNI_CONCAT(uni_result_, __LINE__), lhs, expr)

}  // namespace unidrive
