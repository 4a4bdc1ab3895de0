#include "hw/arch.h"

#include <map>
#include <mutex>
#include <utility>

#include "crypto/hash.h"

namespace erasmus::hw {

namespace {

// A fixed vendor image (kernel, PrAtt, ROM code) and its SHA-256. Content
// only matters for integrity digests, so a cheap LCG byte stream stands in
// for the binary.
struct GoldenImage {
  std::shared_ptr<const Bytes> bytes;
  Bytes sha256;
};

// One immutable image per (tag, size), built on first use and shared by
// every device in the process. Each entry is a pure function of its key,
// so neither build order nor thread count can change it.
const GoldenImage& golden_image(uint32_t tag, size_t size) {
  static std::mutex mu;
  static std::map<std::pair<uint32_t, size_t>, GoldenImage> cache;
  const std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(tag, size);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  auto image = std::make_shared<Bytes>(size);
  uint32_t x = 0x12345678u ^ tag;
  for (auto& b : *image) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  Bytes digest = crypto::Hash::digest(crypto::HashAlgo::kSha256, *image);
  return cache.emplace(key, GoldenImage{std::move(image), std::move(digest)})
      .first->second;
}

}  // namespace

ByteView SecurityArch::ProtectedContext::key() const {
  return arch_.key_for(*this);
}

void SecurityArch::run_protected(
    const std::function<void(ProtectedContext&)>& fn) {
  if (in_protected_) {
    throw SecurityViolation(
        "run_protected: atomic section re-entered (attestation code must "
        "run from first to last instruction)");
  }
  pre_protected_check();
  in_protected_ = true;
  ProtectedContext ctx(*this);
  try {
    fn(ctx);
  } catch (...) {
    // Models the architecture's cleanup-on-exit guarantee: the protected
    // flag (and thus key access) is revoked even on abnormal exit.
    in_protected_ = false;
    throw;
  }
  in_protected_ = false;
}

ByteView SecurityArch::key_for(const ProtectedContext&) const {
  if (!in_protected_) {
    throw SecurityViolation(
        "key access outside the protected attestation environment");
  }
  return key_;
}

// --- SMART+ ---------------------------------------------------------------

SmartPlusArch::SmartPlusArch(Bytes key, size_t rom_bytes, size_t app_ram_bytes,
                             size_t store_bytes)
    : SecurityArch(std::move(key)) {
  // The ROM image is burned in at manufacture: every device maps the one
  // shared golden image (kRom forbids even privileged writes afterwards).
  rom_ = memory_.add_image_region(
      "rom", golden_image(/*tag=*/0x534d4152u, rom_bytes).bytes,  // "SMAR"
      policy::kRom);
  key_region_ = memory_.add_region("key", key_.size(), policy::kKey);
  app_ = memory_.add_region("app_ram", app_ram_bytes, policy::kAppRam);
  store_ = memory_.add_region("measurement_store", store_bytes,
                              policy::kMeasurementStore);
  // K is provisioned at manufacture too (provision bypasses the run-time
  // policy; kKey forbids even privileged writes afterwards).
  memory_.provision(key_region_, 0, key_);
}

const std::string& SmartPlusArch::name() const {
  static const std::string kName = "SMART+";
  return kName;
}

// --- HYDRA ------------------------------------------------------------------

HydraArch::HydraArch(Bytes key, size_t app_ram_bytes, size_t store_bytes)
    : SecurityArch(std::move(key)) {
  // Sizes follow the paper's Table 1 scale: the seL4 kernel plus PrAtt image
  // is a couple hundred KB. Both map shared golden images, whose digests
  // are what secure boot expects.
  const GoldenImage& kernel = golden_image(/*tag=*/0x73654c34u,  // "seL4"
                                           160 * 1024);
  const GoldenImage& pratt = golden_image(/*tag=*/0x50724174u,  // "PrAt"
                                          72 * 1024);
  kernel_ = memory_.add_image_region(
      "sel4_kernel", kernel.bytes,
      RegionPolicy{Access::kRead, Access::kReadWrite});
  pratt_ = memory_.add_image_region(
      "pratt", pratt.bytes, RegionPolicy{Access::kRead, Access::kReadWrite});
  key_region_ = memory_.add_region("key", key_.size(), policy::kKey);
  app_ = memory_.add_region("app_ram", app_ram_bytes, policy::kAppRam);
  store_ = memory_.add_region("measurement_store", store_bytes,
                              policy::kMeasurementStore);

  memory_.provision(key_region_, 0, key_);
  kernel_digest_ = kernel.sha256;
  pratt_digest_ = pratt.sha256;

  // HYDRA: PrAtt is the initial user-space process at top priority; all
  // other processes are spawned by it at strictly lower priorities.
  processes_.push_back(Process{"pratt", 255, /*spawned_by_pratt=*/false});
}

void HydraArch::secure_boot() {
  // Hashes this device's own bytes every time: a device whose image was
  // written to has private bytes, which the golden digests must catch.
  const Bytes kd = crypto::Hash::digest(
      crypto::HashAlgo::kSha256, memory_.view(kernel_, /*privileged=*/true));
  const Bytes pd = crypto::Hash::digest(
      crypto::HashAlgo::kSha256, memory_.view(pratt_, /*privileged=*/true));
  if (!equal(kd, kernel_digest_)) {
    throw SecurityViolation("secure boot: seL4 kernel image digest mismatch");
  }
  if (!equal(pd, pratt_digest_)) {
    throw SecurityViolation("secure boot: PrAtt image digest mismatch");
  }
  booted_ = true;
}

void HydraArch::corrupt_pratt_image() {
  Bytes b = memory_.read(pratt_, 0, 1, /*privileged=*/true);
  b[0] ^= 0xff;
  memory_.write(pratt_, 0, b, /*privileged=*/true);
  booted_ = false;
}

void HydraArch::spawn_process(std::string name, int priority) {
  if (priority >= 255) {
    throw SecurityViolation(
        "HYDRA: user processes must run below PrAtt's priority");
  }
  processes_.push_back(Process{std::move(name), priority,
                               /*spawned_by_pratt=*/true});
}

const std::string& HydraArch::name() const {
  static const std::string kName = "HYDRA";
  return kName;
}

void HydraArch::pre_protected_check() const {
  if (!booted_) {
    throw SecurityViolation(
        "HYDRA: secure boot has not validated the kernel and PrAtt images");
  }
}

}  // namespace erasmus::hw
