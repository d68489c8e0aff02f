#ifndef DMM_CAPTURE_DMM_CAPTURE_H
#define DMM_CAPTURE_DMM_CAPTURE_H

// Live allocation capture to the DMMT trace format.
//
// Two ways in:
//
//  1. LD_PRELOAD (no rebuild): preload.cpp interposes malloc / calloc /
//     realloc / free and feeds them here.
//
//       LD_PRELOAD=./tools/libdmm_capture.so DMM_CAPTURE_OUT=/tmp/app.dmmt
//       ./your_app
//
//  2. Macro shim (applications that own their allocation choke points):
//     include this header, wrap the choke points in DMM_CAPTURE_ALLOC /
//     DMM_CAPTURE_FREE, and bracket the run with DMM_CAPTURE_BEGIN /
//     DMM_CAPTURE_END.  Compiles to nothing unless DMM_CAPTURE_ENABLED
//     is defined, so the shim can stay in production sources.
//
// How it works: each capturing thread owns a lock-free single-producer /
// single-consumer ring.  Recording is one global sequence-number
// fetch_add plus one ring push — no locks, no I/O, no allocation on the
// hot path (after the thread's first event).  A dedicated writer thread
// merges the rings in global sequence order, maps pointers to dense
// object ids, and streams DMMT blocks through trace::TraceWriter, so
// capture memory stays O(rings + live objects) no matter how long the
// run is.
//
// Event ordering is exact where it matters: an alloc is recorded *after*
// the underlying allocator returns and a free *before* the memory is
// released, so for any given address the free of one life always gets a
// smaller sequence number than the alloc of the next — address reuse can
// never produce free-before-alloc in the merged stream.  Frees of
// pointers whose allocation was never recorded (pre-capture mallocs,
// internal bookkeeping) are dropped and counted, keeping the trace
// validate()-clean.
//
// capture_end() must run after the threads being captured have quiesced
// (joined, or process exit): events recorded while it drains may be cut
// off at the final-sequence snapshot it takes.

#include <cstddef>
#include <cstdint>
#include <string>

namespace dmm::capture {

struct CaptureReport {
  std::uint64_t events = 0;         ///< events written to the file
  std::uint64_t unknown_frees = 0;  ///< frees of never-recorded pointers
  bool ok = false;                  ///< file finalized and renamed
};

/// Starts capturing to @p path (written atomically via a unique temp
/// sibling, so concurrent captures to one path last-writer-win).
/// False if a capture is already running or the file cannot be created.
bool capture_begin(const char* path, std::string* why = nullptr);

/// True between a successful capture_begin and the matching capture_end.
bool capture_active();

/// Records one allocation (call after the allocator returned @p ptr).
void capture_alloc(const void* ptr, std::size_t size);

/// Records one deallocation (call before the memory is released).
void capture_free(const void* ptr);

/// Tags subsequent events (all threads) with @p phase — the trace-side
/// phase column for applications that signal their own phase boundaries.
void capture_phase(std::uint16_t phase);

/// Opts the calling thread out of capture entirely (the writer thread
/// uses this on itself; tools may too).
void capture_thread_opt_out();

/// Drains everything recorded so far, finalizes the DMMT file, and stops
/// the writer.  Safe to call with no capture running (no-op report).
CaptureReport capture_end(std::string* why = nullptr);

}  // namespace dmm::capture

// --- Macro shim ---------------------------------------------------------
#ifdef DMM_CAPTURE_ENABLED
#define DMM_CAPTURE_BEGIN(path) ::dmm::capture::capture_begin((path))
#define DMM_CAPTURE_ALLOC(ptr, size) \
  ::dmm::capture::capture_alloc((ptr), (size))
#define DMM_CAPTURE_FREE(ptr) ::dmm::capture::capture_free((ptr))
#define DMM_CAPTURE_PHASE(phase) ::dmm::capture::capture_phase((phase))
#define DMM_CAPTURE_END() ::dmm::capture::capture_end()
#else
#define DMM_CAPTURE_BEGIN(path) ((void)0)
#define DMM_CAPTURE_ALLOC(ptr, size) ((void)0)
#define DMM_CAPTURE_FREE(ptr) ((void)0)
#define DMM_CAPTURE_PHASE(phase) ((void)0)
#define DMM_CAPTURE_END() ((void)0)
#endif

#endif  // DMM_CAPTURE_DMM_CAPTURE_H
