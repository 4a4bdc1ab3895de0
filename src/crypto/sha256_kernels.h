// SHA-256 compression kernels behind crypto::Sha256. Private to crypto/,
// its tests and bench_crypto.
//
// The scalar kernel is the portable reference. On x86-64 a SHA-NI kernel is
// also compiled, with a per-function target attribute rather than a build
// flag, and Sha256 picks it once at startup when cpuid reports SHA, SSSE3 and
// SSE4.1. Both compute the FIPS 180-4 compression function exactly, so the
// choice never changes a digest.
#pragma once

#include <cstddef>
#include <cstdint>

namespace erasmus::crypto::detail {

/// Compresses `n_blocks` consecutive 64-byte blocks starting at `blocks`
/// (any alignment) into the eight-word chaining value `state`.
using Sha256Compress = void (*)(uint32_t* state, const uint8_t* blocks,
                                size_t n_blocks);

/// Portable reference kernel; the fallback on every CPU.
void sha256_compress_scalar(uint32_t* state, const uint8_t* blocks,
                            size_t n_blocks);

/// The SHA-NI kernel, or nullptr when this build is not x86-64 or the CPU
/// lacks the SHA, SSSE3 or SSE4.1 extensions.
Sha256Compress sha256_shani_kernel();

/// The kernel Sha256 dispatches to, chosen once per process.
Sha256Compress sha256_kernel();

/// Name of sha256_kernel(): "sha-ni" or "scalar".
const char* sha256_kernel_name();

}  // namespace erasmus::crypto::detail
