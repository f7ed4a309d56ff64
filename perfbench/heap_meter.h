#pragma once

/// \file heap_meter.h
/// \brief Live-heap high-water mark of the process, counted by the
/// benchmark's replacement of the global operator new/delete
/// (heap_meter.cc). Counting is off unless a window is open, so timed runs
/// pay one relaxed load per allocation.

#include <cstdint>

namespace perfbench {

/// \brief Starts a window: the mark is reset to the current live heap.
void HeapMeterStart();
/// \brief Ends the window and returns the bytes the live heap rose above
/// its level at HeapMeterStart (0 when it never rose).
int64_t HeapMeterStop();

}  // namespace perfbench
