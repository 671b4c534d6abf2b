//===--- Heap.cpp - Abstract heap with borrow stacks ----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "miri/Heap.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace syrust;
using namespace syrust::miri;

const char *syrust::miri::ubKindName(UbKind K) {
  switch (K) {
  case UbKind::None:
    return "none";
  case UbKind::MemoryLeak:
    return "memory-leak";
  case UbKind::DanglingPointer:
    return "dangling-pointer";
  case UbKind::UseAfterFree:
    return "use-after-free";
  case UbKind::OutOfBoundsPointer:
    return "oob-pointer";
  case UbKind::DoubleFree:
    return "double-free";
  case UbKind::InvalidBorrow:
    return "invalid-borrow";
  }
  return "?";
}

// The kinds run from 0 up to the first value the name switch does not
// know, so walking the switch finds every name.
bool syrust::miri::ubKindFromName(const std::string &Name, UbKind &Out) {
  for (uint8_t I = 0;; ++I) {
    const char *Candidate = ubKindName(UbKind(I));
    if (std::strcmp(Candidate, "?") == 0)
      return false;
    if (Name == Candidate) {
      Out = UbKind(I);
      return true;
    }
  }
}

int AbstractHeap::allocate(size_t Size, std::string Note) {
  Allocation A;
  A.Size = Size;
  A.BorrowStack = {NextTag++};
  A.Note = std::move(Note);
  Allocs.push_back(std::move(A));
  return static_cast<int>(Allocs.size() - 1);
}

void AbstractHeap::flag(UbKind Kind, std::string Message, int Line) {
  if (Ub.Kind != UbKind::None)
    return; // First UB wins.
  Ub.Kind = Kind;
  Ub.Message = std::move(Message);
  Ub.Line = Line;
}

void AbstractHeap::free(int Alloc, int Line) {
  assert(Alloc >= 0 && static_cast<size_t>(Alloc) < Allocs.size());
  Allocation &A = Allocs[static_cast<size_t>(Alloc)];
  if (A.Freed) {
    flag(UbKind::DoubleFree,
         format("double free of allocation %d (%s)", Alloc,
                A.Note.c_str()),
         Line);
    return;
  }
  A.Freed = true;
}

bool AbstractHeap::isFreed(int Alloc) const {
  return Allocs[static_cast<size_t>(Alloc)].Freed;
}

size_t AbstractHeap::size(int Alloc) const {
  return Allocs[static_cast<size_t>(Alloc)].Size;
}

const Allocation &AbstractHeap::get(int Alloc) const {
  return Allocs[static_cast<size_t>(Alloc)];
}

void AbstractHeap::exemptFromLeakCheck(int Alloc) {
  Allocs[static_cast<size_t>(Alloc)].LeakExempt = true;
}

uint64_t AbstractHeap::pushBorrow(int Alloc, bool Unique, int Line) {
  Allocation &A = Allocs[static_cast<size_t>(Alloc)];
  if (A.Freed) {
    flag(UbKind::UseAfterFree,
         format("borrow of freed allocation %d (%s)", Alloc,
                A.Note.c_str()),
         Line);
    return 0;
  }
  if (Unique && A.BorrowStack.size() > 1) {
    // A fresh unique borrow invalidates all previous borrows above the
    // owner tag.
    A.BorrowStack.resize(1);
  }
  uint64_t Tag = NextTag++;
  A.BorrowStack.push_back(Tag);
  return Tag;
}

bool AbstractHeap::useBorrow(int Alloc, uint64_t Tag, bool UniqueAccess,
                             int Line) {
  Allocation &A = Allocs[static_cast<size_t>(Alloc)];
  if (A.Freed) {
    flag(UbKind::UseAfterFree,
         format("use of freed allocation %d (%s) through tag %llu", Alloc,
                A.Note.c_str(), static_cast<unsigned long long>(Tag)),
         Line);
    return false;
  }
  auto It = std::find(A.BorrowStack.begin(), A.BorrowStack.end(), Tag);
  if (It == A.BorrowStack.end()) {
    flag(UbKind::InvalidBorrow,
         format("tag %llu is not in the borrow stack of allocation %d",
                static_cast<unsigned long long>(Tag), Alloc),
         Line);
    return false;
  }
  if (UniqueAccess) {
    // Using a tag for writing pops everything above it.
    A.BorrowStack.erase(It + 1, A.BorrowStack.end());
  }
  return true;
}

void AbstractHeap::recordRawPointer(int Alloc, int64_t Offset, int Line,
                                    const std::string &What) {
  const Allocation &A = Allocs[static_cast<size_t>(Alloc)];
  if (A.Freed) {
    flag(UbKind::DanglingPointer,
         format("created dangling pointer (%s) into freed allocation %d",
                What.c_str(), Alloc),
         Line);
    return;
  }
  if (Offset < 0 || static_cast<size_t>(Offset) > A.Size) {
    flag(UbKind::OutOfBoundsPointer,
         format("created out-of-bounds pointer (%s): offset %lld outside "
                "allocation %d of size %zu",
                What.c_str(), static_cast<long long>(Offset), Alloc,
                A.Size),
         Line);
  }
}

void AbstractHeap::leakCheck() {
  for (size_t I = 0; I < Allocs.size(); ++I) {
    const Allocation &A = Allocs[I];
    if (!A.Freed && !A.LeakExempt) {
      flag(UbKind::MemoryLeak,
           format("memory leak: allocation %zu (%s) of size %zu never "
                  "freed",
                  I, A.Note.c_str(), A.Size),
           -1);
      return;
    }
  }
}
