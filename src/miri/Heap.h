//===--- Heap.h - Abstract heap with borrow stacks -------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory model of the Miri substitute: numbered allocations, a
/// Stacked-Borrows-style tag stack per allocation, and undefined-behavior
/// detectors for the four bug classes the paper's tool surfaced (Figure 7):
/// memory leak, dangling pointer, use-after-free, and out-of-bounds
/// pointer. Following Miri's semantics (and the discussion of bugs ⋆2/⋆4
/// in Section 7.1), *creating* a dangling or out-of-bounds pointer is
/// already undefined behavior - no dereference required.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_MIRI_HEAP_H
#define SYRUST_MIRI_HEAP_H

#include <cstdint>
#include <string>
#include <vector>

namespace syrust::miri {

/// Kinds of undefined behavior the interpreter flags.
enum class UbKind : uint8_t {
  None,
  MemoryLeak,
  DanglingPointer,
  UseAfterFree,
  OutOfBoundsPointer,
  DoubleFree,
  InvalidBorrow, ///< Stacked-borrows tag invalidation.
};

const char *ubKindName(UbKind K);
/// The inverse of ubKindName. False when \p Name names no kind.
bool ubKindFromName(const std::string &Name, UbKind &Out);

/// A flagged undefined behavior.
struct UbReport {
  UbKind Kind = UbKind::None;
  std::string Message;
  int Line = -1; ///< Statement index at which the UB occurred; -1 for
                 ///< end-of-program (drop glue / leak check).
};

/// One heap allocation.
struct Allocation {
  size_t Size = 0;
  bool Freed = false;
  /// Stacked-Borrows-lite: stack of borrow tags; index 0 is the owner tag.
  std::vector<uint64_t> BorrowStack;
  /// Exempt from the leak check (e.g. intentionally leaked via
  /// mem::forget-style APIs).
  bool LeakExempt = false;
  std::string Note; ///< For diagnostics ("ArrayQueue buffer").
};

/// Allocation arena plus UB detection. The first UB wins; later operations
/// still execute but do not overwrite the report.
class AbstractHeap {
public:
  /// Allocates \p Size abstract bytes; returns the allocation id.
  int allocate(size_t Size, std::string Note = {});

  /// Frees an allocation; flags DoubleFree on refree.
  void free(int Alloc, int Line);

  bool isFreed(int Alloc) const;
  size_t size(int Alloc) const;
  const Allocation &get(int Alloc) const;

  /// Marks an allocation exempt from the final leak check.
  void exemptFromLeakCheck(int Alloc);

  /// Pushes a borrow tag; \p Unique pops all shared tags above the parent
  /// (a &mut invalidates prior borrows). Returns the new tag. Borrowing
  /// freed memory flags UseAfterFree.
  uint64_t pushBorrow(int Alloc, bool Unique, int Line);

  /// Validates an access through \p Tag: flags UseAfterFree on freed
  /// memory and InvalidBorrow when the tag has been popped. A unique access
  /// pops tags above \p Tag.
  bool useBorrow(int Alloc, uint64_t Tag, bool UniqueAccess, int Line);

  /// Records creation of a raw pointer at \p Offset into \p Alloc. Flags
  /// DanglingPointer when the allocation is freed and OutOfBoundsPointer
  /// when the offset exceeds the allocation size (one-past-the-end is
  /// allowed, matching Rust).
  void recordRawPointer(int Alloc, int64_t Offset, int Line,
                        const std::string &What);

  /// Runs the end-of-program leak check: any live, non-exempt allocation
  /// flags MemoryLeak.
  void leakCheck();

  /// The first UB flagged, if any.
  const UbReport &ub() const { return Ub; }
  bool hasUb() const { return Ub.Kind != UbKind::None; }

  /// Explicitly flags a UB (used by library semantics for bespoke cases).
  void flag(UbKind Kind, std::string Message, int Line);

private:
  std::vector<Allocation> Allocs;
  UbReport Ub;
  uint64_t NextTag = 1;
};

} // namespace syrust::miri

#endif // SYRUST_MIRI_HEAP_H
