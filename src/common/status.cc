#include "common/status.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace smeter {

namespace internal {

void ResultAccessFailed(const char* message, const Status& status) {
  std::fprintf(stderr, "[smeter fatal] %s (status: %s)\n", message,
               status.ToString().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal

std::string StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kDataLoss:
      return "DataLoss";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  return StatusCodeToString(code_) + ": " + message_;
}

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status UnimplementedError(std::string message) {
  return Status(StatusCode::kUnimplemented, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
Status ErrnoError(const std::string& what) {
  const std::error_code error(errno, std::generic_category());
  return InternalError(what + ": " + error.message());
}

}  // namespace smeter
