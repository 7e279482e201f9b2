// Error-handling primitives for the smeter library.
//
// The library does not use exceptions. Fallible operations return a
// `Status`, or a `Result<T>` when they also produce a value:
//
//   smeter::Result<LookupTable> table = BuildLookupTable(...);
//   if (!table.ok()) return table.status();
//   Use(table.value());

#ifndef SMETER_COMMON_STATUS_H_
#define SMETER_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace smeter {

// Broad error categories, modeled after absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  // Stored data failed an integrity check (checksum mismatch, torn write,
  // truncated frame). Distinct from kInvalidArgument — the bytes were once
  // valid and have been damaged, so recovery tooling (fsck, salvage) applies.
  kDataLoss,
};

// Returns a human-readable name for `code`, e.g. "InvalidArgument".
std::string StatusCodeToString(StatusCode code);

// A lightweight success-or-error value. Default-constructed Status is OK.
//
// [[nodiscard]]: ignoring a returned Status silently swallows the error, so
// every call site must consume it (check it, propagate it, or SMETER_CHECK_OK
// it).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Convenience constructors mirroring absl's.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);
Status UnimplementedError(std::string message);
Status DataLossError(std::string message);
// InternalError("<what>: <strerror(errno)>") for a failed system call.
Status ErrnoError(const std::string& what);

namespace internal {
// Prints `message` (with the offending status, if any) and aborts. Lives in
// status.cc so the template below stays light; intentionally not the
// check.h machinery, which layers on top of this header.
[[noreturn]] void ResultAccessFailed(const char* message,
                                     const Status& status);
}  // namespace internal

// Holds either a value of type T or a non-OK Status.
//
// Accessing value() on an error Result is a programming error and aborts in
// every build mode — an unconditional branch here is cheaper than the
// use-after-invalid it would otherwise become.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so functions can `return value;` or
  // `return SomeError(...);` directly, as with absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      internal::ResultAccessFailed(
          "Result constructed from OK status without a value", status_);
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    if (!ok()) internal::ResultAccessFailed("value() on error Result", status_);
    return *value_;
  }
  T& value() & {
    if (!ok()) internal::ResultAccessFailed("value() on error Result", status_);
    return *value_;
  }
  T&& value() && {
    if (!ok()) internal::ResultAccessFailed("value() on error Result", status_);
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace smeter

// Propagates a non-OK Status from an expression, absl-style.
#define SMETER_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::smeter::Status _smeter_st = (expr);     \
    if (!_smeter_st.ok()) return _smeter_st;  \
  } while (false)

#endif  // SMETER_COMMON_STATUS_H_
