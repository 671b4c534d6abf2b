//===--- ResultDatabase.h - Algorithm 1's program/result store -*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 line 12: "DB <- DB u R" - every synthesized program and its
/// executor verdict is recorded. The driver keeps aggregate counters
/// regardless; this store optionally retains the per-test records (up to a
/// cap) for inspection, regression diffing, and the CLI's `--log-tests`.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_RESULTDATABASE_H
#define SYRUST_CORE_RESULTDATABASE_H

#include "miri/Heap.h"
#include "rustsim/Diagnostic.h"

#include <cstdint>
#include <string>
#include <vector>

namespace syrust::core {

/// Verdict of one test case.
enum class TestVerdict : uint8_t {
  Rejected, ///< Compiler error.
  Passed,   ///< Compiled and ran without UB.
  Ub,       ///< Compiled and Miri flagged undefined behavior.
};

/// One Algorithm 1 DB record.
struct TestRecord {
  uint64_t Hash = 0;           ///< Program::hash().
  int Lines = 0;
  double AtSeconds = 0;        ///< Simulated time of the verdict.
  TestVerdict Verdict = TestVerdict::Passed;
  rustsim::ErrorDetail Detail = rustsim::ErrorDetail::None; ///< Rejected.
  miri::UbKind Ub = miri::UbKind::None;                     ///< Ub.
  std::string Source;          ///< Rendered program.
  std::string Message;         ///< Diagnostic / UB message.
};

/// Bounded store of per-test records. RunResult counts every verdict;
/// this keeps only the first records, up to a cap.
class ResultDatabase {
public:
  /// \p Cap bounds retained records (0 disables retention).
  explicit ResultDatabase(size_t Cap = 0) : Cap(Cap) {}

  /// True while the cap has room; the driver builds a record only then.
  bool wantsMore() const { return Records.size() < Cap; }

  void record(TestRecord R) {
    if (wantsMore())
      Records.push_back(std::move(R));
  }

  const std::vector<TestRecord> &records() const { return Records; }

private:
  size_t Cap;
  std::vector<TestRecord> Records;
};

} // namespace syrust::core

#endif // SYRUST_CORE_RESULTDATABASE_H
