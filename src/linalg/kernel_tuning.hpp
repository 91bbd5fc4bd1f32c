// Persistent per-host kernel tuning.
//
// The empirical tuner (core/kernel_tune.hpp, driven by tools/hqr_tune)
// searches the micro-kernel shape and GEMM cache blocking for the host CPU
// and saves the winner to a small versioned JSON file keyed by the CPU
// brand string:
//
//   {$XDG_CACHE_HOME|~/.cache}/hqr/tuning-<cpu-id>.json
//
// This module owns the file format and the consumption side: the first
// TileWorkspace construction calls ensure_tuning_applied(), which loads the
// cache (or falls back to the built-in defaults) and installs the
// parameters process-wide. Environment overrides:
//
//   HQR_TUNING=off       skip the cache entirely (built-in defaults stay)
//   HQR_TUNING_FILE=...  read this file instead of the per-host path
//   HQR_KERNEL_ISA=...   always wins over the cached micro-kernel choice
#pragma once

#include <string>

#include "linalg/gemm.hpp"

namespace hqr {

struct KernelTuning {
  std::string cpu;     // tuning_cpu_id() of the machine that produced it
  std::string kernel;  // micro-kernel name or ISA tier ("" = best supported)
  GemmBlocking blocking{};
};

// Built-in defaults: current GEMM blocking, best supported micro-kernel.
// Used whenever no (valid) cache file exists.
KernelTuning default_kernel_tuning();

// Stable per-host identifier derived from the CPU brand string (cpuid
// leaves 0x80000002..4), sanitized to [a-z0-9-]; "generic" off x86.
std::string tuning_cpu_id();

// The per-host cache path (HQR_TUNING_FILE > XDG_CACHE_HOME > ~/.cache).
std::string default_tuning_path();

// Reads `path`; false on missing file, schema mismatch, or parse error
// (out is left untouched). A cpu mismatch does NOT fail the load — callers
// decide whether cross-host parameters are acceptable. Keys it does not
// know, such as the retired "householder_panel", are ignored.
bool load_kernel_tuning(const std::string& path, KernelTuning& out);

// Writes `path` (creating parent directories); false on I/O failure.
bool save_kernel_tuning(const std::string& path, const KernelTuning& tuning);

// Installs blocking + micro-kernel process-wide. The kernel
// is skipped when HQR_KERNEL_ISA is set (explicit override) or when the
// named kernel is unknown/unsupported on this CPU.
void apply_kernel_tuning(const KernelTuning& tuning);

// Idempotent startup hook: applies the cached tuning for this host if a
// valid cache matches tuning_cpu_id(), the built-in defaults otherwise.
// HQR_TUNING=off disables the cache lookup (defaults are NOT re-applied,
// so test-set blocking survives).
void ensure_tuning_applied();

}  // namespace hqr
