//===--- CoverageMap.h - Line and branch coverage tracking -----*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for grcov/lcov (Section 7.3): library models declare a line and
/// branch layout, interpreter semantics mark hits, and timed snapshots feed
/// the Figure 11 coverage table and its saturation analysis.
///
/// Layout convention: lines [0, ComponentLines) and branches
/// [0, ComponentBranches) belong to the component under test; the library
/// totals include them plus the rest of the crate (which synthesized tests
/// can only partially reach, mirroring the component-vs-library gap in the
/// paper).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_COVERAGE_COVERAGEMAP_H
#define SYRUST_COVERAGE_COVERAGEMAP_H

#include <cstddef>
#include <vector>

namespace syrust::coverage {

/// Coverage percentages for one scope.
struct CoverageNumbers {
  double ComponentLine = 0;
  double ComponentBranch = 0;
  double LibraryLine = 0;
  double LibraryBranch = 0;
};

/// A timed coverage snapshot (taken every 900 sim-seconds in the paper).
struct CoverageSnapshot {
  double AtSeconds = 0;
  CoverageNumbers Numbers;
};

/// Tracks line and branch hits over a declared layout.
class CoverageMap {
public:
  CoverageMap(int ComponentLines, int LibraryLines, int ComponentBranches,
              int LibraryBranches);

  /// Marks lines [Begin, End) covered.
  void coverLines(int Begin, int End);

  /// Marks one arm of a branch covered (each branch has two arms).
  void coverBranch(int Branch, bool Taken);

  CoverageNumbers numbers() const;

  /// Records a snapshot at simulated time \p AtSeconds.
  void snapshot(double AtSeconds);
  const std::vector<CoverageSnapshot> &snapshots() const { return Snaps; }

  /// Simulated time at which component line coverage stopped improving
  /// (the last snapshot that increased it); -1 with no snapshots.
  double saturationTime() const;

private:
  int ComponentLineCount;
  int ComponentBranchCount;
  std::vector<bool> LineHit;
  std::vector<bool> BranchArmHit; ///< 2 slots per branch.
  std::vector<CoverageSnapshot> Snaps;
};

} // namespace syrust::coverage

#endif // SYRUST_COVERAGE_COVERAGEMAP_H
