// Tests for the SMART+ and HYDRA security-architecture models: the three
// §3.4 guarantees (exclusive key access, atomic execution, cleanup) plus
// HYDRA's secure boot and process-priority rules.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/hex.h"
#include "crypto/hash.h"
#include "hw/arch.h"

namespace erasmus::hw {
namespace {

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

SmartPlusArch make_smart() {
  return SmartPlusArch(test_key(), /*rom_bytes=*/4096,
                       /*app_ram_bytes=*/1024, /*store_bytes=*/512);
}

TEST(SmartPlus, KeyReadableOnlyInsideProtectedCode) {
  auto arch = make_smart();
  Bytes seen;
  arch.run_protected([&](SecurityArch::ProtectedContext& ctx) {
    const ByteView k = ctx.key();
    seen.assign(k.begin(), k.end());
  });
  EXPECT_EQ(seen, test_key());
}

TEST(SmartPlus, KeyAccessOutsideProtectedThrows) {
  auto arch = make_smart();
  // Smuggle a copy of the capability out of the protected section and use
  // it later: the architecture revokes access at section exit.
  std::optional<SecurityArch::ProtectedContext> leaked;
  arch.run_protected(
      [&](SecurityArch::ProtectedContext& ctx) { leaked.emplace(ctx); });
  ASSERT_TRUE(leaked.has_value());
  EXPECT_THROW((void)leaked->key(), SecurityViolation);
}

TEST(SmartPlus, AtomicSectionIsNotReentrant) {
  auto arch = make_smart();
  EXPECT_THROW(
      arch.run_protected([&](SecurityArch::ProtectedContext&) {
        arch.run_protected([](SecurityArch::ProtectedContext&) {});
      }),
      SecurityViolation);
}

TEST(SmartPlus, ProtectedFlagClearedOnException) {
  auto arch = make_smart();
  EXPECT_THROW(arch.run_protected([](SecurityArch::ProtectedContext&) {
    throw std::runtime_error("fault inside attestation code");
  }),
               std::runtime_error);
  EXPECT_FALSE(arch.in_protected());
  // Architecture is reusable afterwards (cleanup guarantee).
  EXPECT_NO_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}));
}

TEST(SmartPlus, InterruptsDisabledDuringMeasurement) {
  auto arch = make_smart();
  EXPECT_FALSE(arch.interrupts_allowed_during_measurement());
  EXPECT_EQ(arch.name(), "SMART+");
}

TEST(SmartPlus, MemoryRegionsFollowFig5) {
  auto arch = make_smart();
  auto& mem = arch.memory();
  // ROM: read-only for everyone.
  EXPECT_THROW(mem.write(arch.rom_region(), 0, Bytes{1}, false),
               AccessViolation);
  // K: invisible to normal software.
  EXPECT_THROW(mem.read(arch.key_region(), 0, 1, false), AccessViolation);
  // App RAM and the measurement store: unprotected.
  EXPECT_NO_THROW(mem.write(arch.app_region(), 0, Bytes{1}, false));
  EXPECT_NO_THROW(mem.write(arch.store_region(), 0, Bytes{1}, false));
}

TEST(SmartPlus, RomImageIsNonTrivial) {
  auto arch = make_smart();
  const Bytes rom = arch.memory().read(arch.rom_region(), 0, 64, false);
  EXPECT_NE(rom, Bytes(64, 0)) << "ROM should contain a burned-in image";
}

TEST(Hydra, RequiresSecureBootBeforeAttestation) {
  HydraArch arch(test_key(), 1024, 512);
  EXPECT_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}),
      SecurityViolation);
  arch.secure_boot();
  EXPECT_NO_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}));
}

TEST(Hydra, SecureBootDetectsCorruptedPrAtt) {
  HydraArch arch(test_key(), 1024, 512);
  arch.secure_boot();
  arch.corrupt_pratt_image();
  EXPECT_THROW(arch.secure_boot(), SecurityViolation);
  EXPECT_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}),
      SecurityViolation);
}

TEST(Hydra, PrAttIsInitialTopPriorityProcess) {
  HydraArch arch(test_key(), 1024, 512);
  ASSERT_FALSE(arch.processes().empty());
  EXPECT_EQ(arch.processes().front().name, "pratt");
  EXPECT_EQ(arch.processes().front().priority, 255);
  EXPECT_FALSE(arch.processes().front().spawned_by_pratt);
}

TEST(Hydra, UserProcessesMustRunBelowPrAtt) {
  HydraArch arch(test_key(), 1024, 512);
  arch.spawn_process("sensor-app", 100);
  EXPECT_EQ(arch.processes().size(), 2u);
  EXPECT_TRUE(arch.processes().back().spawned_by_pratt);
  EXPECT_THROW(arch.spawn_process("evil", 255), SecurityViolation);
  EXPECT_THROW(arch.spawn_process("evil", 300), SecurityViolation);
}

TEST(Hydra, InterruptsAllowedUnderSeL4) {
  HydraArch arch(test_key(), 1024, 512);
  EXPECT_TRUE(arch.interrupts_allowed_during_measurement());
  EXPECT_EQ(arch.name(), "HYDRA");
}

TEST(Hydra, KernelAndPrAttImagesAreWriteProtectedFromUserland) {
  HydraArch arch(test_key(), 1024, 512);
  arch.secure_boot();
  auto& mem = arch.memory();
  EXPECT_NO_THROW(mem.read(arch.kernel_region(), 0, 16, false));
  EXPECT_THROW(mem.write(arch.kernel_region(), 0, Bytes{1}, false),
               AccessViolation);
  EXPECT_THROW(mem.write(arch.pratt_region(), 0, Bytes{1}, false),
               AccessViolation);
}

TEST(Hydra, KeyAccessWorksAfterBoot) {
  HydraArch arch(test_key(), 1024, 512);
  arch.secure_boot();
  Bytes seen;
  arch.run_protected([&](SecurityArch::ProtectedContext& ctx) {
    seen.assign(ctx.key().begin(), ctx.key().end());
  });
  EXPECT_EQ(seen, test_key());
}

// --- Shared golden images -------------------------------------------------

// The per-device fill every arch used to write into its own image regions:
// the shared images must keep exactly these bytes.
Bytes lcg_image(uint32_t tag, size_t size) {
  Bytes image(size);
  uint32_t x = 0x12345678u ^ tag;
  for (auto& b : image) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return image;
}

std::string sha256_hex(ByteView data) {
  return to_hex(crypto::Hash::digest(crypto::HashAlgo::kSha256, data));
}

TEST(GoldenImage, DigestsMatchTheOldPerDeviceFill) {
  const SmartPlusArch smart(test_key(), /*rom_bytes=*/8 * 1024, 1024, 512);
  const HydraArch hydra(test_key(), 1024, 512);
  const ByteView rom = smart.memory().view(smart.rom_region(), false);
  const ByteView kernel = hydra.memory().view(hydra.kernel_region(), true);
  const ByteView pratt = hydra.memory().view(hydra.pratt_region(), true);

  EXPECT_TRUE(equal(rom, lcg_image(0x534d4152u, 8 * 1024)));
  EXPECT_TRUE(equal(kernel, lcg_image(0x73654c34u, 160 * 1024)));
  EXPECT_TRUE(equal(pratt, lcg_image(0x50724174u, 72 * 1024)));
  EXPECT_EQ(sha256_hex(rom),
            "47861c4e45eca1d5173edb0831cbb28212399f0dd2a72164ba6fe40faaf1ec7e");
  EXPECT_EQ(sha256_hex(kernel),
            "d44acfc8408690e6234b3a76e9c97ea76650698ed79ba061a17b3af0fb04f8df");
  EXPECT_EQ(sha256_hex(pratt),
            "18ea8a31782baf2b3dbb686323920a29c74250a8481b90da6bf8723fa55e3792");
}

TEST(GoldenImage, DevicesShareOneImagePerTagAndSize) {
  const auto a = make_smart();
  const auto b = make_smart();
  const SmartPlusArch bigger(test_key(), /*rom_bytes=*/8192, 1024, 512);
  const ByteView rom_a = a.memory().view(a.rom_region(), false);
  EXPECT_EQ(rom_a.data(), b.memory().view(b.rom_region(), false).data());
  EXPECT_NE(rom_a.data(),
            bigger.memory().view(bigger.rom_region(), false).data());
  // Only the key, app RAM and store are private.
  EXPECT_EQ(a.memory().private_bytes(), test_key().size() + 1024 + 512);
  EXPECT_EQ(a.memory().total_size(),
            4096 + test_key().size() + 1024 + 512);
}

TEST(GoldenImage, CorruptedPrAttFailsOnlyThatDevice) {
  HydraArch victim(test_key(), 1024, 512);
  HydraArch sibling(test_key(), 1024, 512);
  const ByteView sibling_pratt =
      sibling.memory().view(sibling.pratt_region(), true);
  victim.secure_boot();
  victim.corrupt_pratt_image();
  EXPECT_THROW(victim.secure_boot(), SecurityViolation);
  EXPECT_NO_THROW(sibling.secure_boot());
  EXPECT_EQ(sibling.memory().view(sibling.pratt_region(), true).data(),
            sibling_pratt.data());
  EXPECT_TRUE(equal(sibling_pratt, lcg_image(0x50724174u, 72 * 1024)));
}

// A ROM size no other test uses, so the threads below race to create its
// cache entry even when earlier tests already built the HYDRA images.
constexpr size_t kRaceRomBytes = 3000;

TEST(GoldenImage, ConcurrentBuildsShareOneImage) {
  constexpr size_t kThreads = 4;
  std::vector<std::optional<HydraArch>> archs(kThreads);
  std::vector<std::optional<SmartPlusArch>> smarts(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&archs, &smarts, i] {
      smarts[i].emplace(test_key(), kRaceRomBytes, 1024, 512);
      archs[i].emplace(test_key(), 1024, 512);
      archs[i]->secure_boot();
    });
  }
  for (auto& t : threads) t.join();

  const auto rom = [](const SmartPlusArch& a) {
    return a.memory().view(a.rom_region(), false);
  };
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(smarts[i].has_value());
    EXPECT_EQ(rom(*smarts[i]).data(), rom(*smarts[0]).data());
  }
  EXPECT_TRUE(equal(rom(*smarts[0]), lcg_image(0x534d4152u, kRaceRomBytes)));

  const auto kernel = [](const HydraArch& a) {
    return a.memory().view(a.kernel_region(), true);
  };
  const auto pratt = [](const HydraArch& a) {
    return a.memory().view(a.pratt_region(), true);
  };
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(archs[i].has_value());
    EXPECT_TRUE(archs[i]->booted());
    EXPECT_EQ(kernel(*archs[i]).data(), kernel(*archs[0]).data());
    EXPECT_EQ(pratt(*archs[i]).data(), pratt(*archs[0]).data());
    EXPECT_EQ(sha256_hex(kernel(*archs[i])), sha256_hex(kernel(*archs[0])));
    EXPECT_EQ(sha256_hex(pratt(*archs[i])), sha256_hex(pratt(*archs[0])));
  }
}

}  // namespace
}  // namespace erasmus::hw
