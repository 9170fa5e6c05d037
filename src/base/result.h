#ifndef CRSAT_BASE_RESULT_H_
#define CRSAT_BASE_RESULT_H_

#include <cstdlib>
#include <iostream>
#include <optional>
#include <utility>

#include "src/base/status.h"

namespace crsat {

/// Either a value of type `T` or an error `Status`.
///
/// `Result` is the value-carrying companion of `Status` (analogous to
/// `absl::StatusOr` / `arrow::Result`). Accessing the value of an error
/// result aborts the process with a diagnostic; callers must check `ok()`
/// first or use `CRSAT_ASSIGN_OR_RETURN`.
///
/// `[[nodiscard]]` for the same reason as `Status`: a discarded
/// `Result<T>` throws away both the value and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs an error result. `status` must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    if (status_.ok()) {
      std::cerr << "crsat: Result constructed from OK status without a value"
                << std::endl;
      std::abort();
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  /// True iff a value is present.
  [[nodiscard]] bool ok() const { return value_.has_value(); }

  /// The error status (OK when a value is present).
  const Status& status() const { return status_; }

  /// The contained value. Aborts if `!ok()`.
  const T& value() const& {
    CheckHasValue();
    return *value_;
  }

  /// The contained value, moved out. Aborts if `!ok()`. Returns by value,
  /// so `for (x : f().value())` iterates an object that lives as long as
  /// the loop, not a reference into the destroyed temporary `Result`.
  T value() && {
    CheckHasValue();
    return *std::move(value_);
  }

  /// Mutable access to the contained value. Aborts if `!ok()`.
  T& value() & {
    CheckHasValue();
    return *value_;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) {
      std::cerr << "crsat: accessed value of error Result: "
                << status_.ToString() << std::endl;
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

/// Evaluates `rexpr` (a `Result<T>` expression); on error returns its status
/// from the current function, otherwise moves the value into `lhs`.
#define CRSAT_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  CRSAT_ASSIGN_OR_RETURN_IMPL_(                                   \
      CRSAT_RESULT_CONCAT_(_crsat_result, __LINE__), lhs, rexpr)

#define CRSAT_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) {                                    \
    return tmp.status();                              \
  }                                                   \
  lhs = std::move(tmp).value()

#define CRSAT_RESULT_CONCAT_INNER_(a, b) a##b
#define CRSAT_RESULT_CONCAT_(a, b) CRSAT_RESULT_CONCAT_INNER_(a, b)

}  // namespace crsat

#endif  // CRSAT_BASE_RESULT_H_
