#include "hw/memory.h"

namespace erasmus::hw {

namespace {

// offset + len <= size, without the wrap-around a huge offset would cause.
bool in_bounds(size_t size, size_t offset, size_t len) {
  return offset <= size && len <= size - offset;
}

}  // namespace

RegionId DeviceMemory::add_region(std::string name, size_t size,
                                  RegionPolicy policy) {
  regions_.push_back(Region{std::move(name), Bytes(size, 0), nullptr, policy});
  return regions_.size() - 1;
}

RegionId DeviceMemory::add_image_region(std::string name,
                                        std::shared_ptr<const Bytes> image,
                                        RegionPolicy policy) {
  if (!image) {
    throw std::invalid_argument("DeviceMemory: null image for region '" +
                                name + "'");
  }
  regions_.push_back(Region{std::move(name), Bytes{}, std::move(image),
                            policy});
  return regions_.size() - 1;
}

Bytes& DeviceMemory::Region::own() {
  if (image) {
    data = *image;
    image.reset();
  }
  return data;
}

const DeviceMemory::Region& DeviceMemory::region_at(RegionId id) const {
  if (id >= regions_.size()) {
    throw std::out_of_range("DeviceMemory: bad region id");
  }
  return regions_[id];
}

void DeviceMemory::check(const Region& r, bool privileged, bool write,
                         size_t offset, size_t len) const {
  if (!in_bounds(r.size(), offset, len)) {
    throw AccessViolation("DeviceMemory: out-of-bounds access to region '" +
                          r.name + "'");
  }
  const Access granted = privileged ? r.policy.privileged
                                    : r.policy.unprivileged;
  const bool ok = write ? (granted == Access::kReadWrite)
                        : (granted != Access::kNone);
  if (!ok) {
    throw AccessViolation(std::string("DeviceMemory: ") +
                          (write ? "write" : "read") + " to region '" +
                          r.name + "' denied for " +
                          (privileged ? "privileged" : "unprivileged") +
                          " code");
  }
}

Bytes DeviceMemory::read(RegionId region, size_t offset, size_t len,
                         bool privileged) const {
  const Region& r = region_at(region);
  check(r, privileged, /*write=*/false, offset, len);
  const ByteView b = r.bytes().subspan(offset, len);
  return Bytes(b.begin(), b.end());
}

void DeviceMemory::write(RegionId region, size_t offset, ByteView data,
                         bool privileged) {
  if (region >= regions_.size()) {
    throw std::out_of_range("DeviceMemory: bad region id");
  }
  Region& r = regions_[region];
  check(r, privileged, /*write=*/true, offset, data.size());
  std::copy(data.begin(), data.end(), r.own().begin() + offset);
}

void DeviceMemory::provision(RegionId region, size_t offset, ByteView data) {
  if (region >= regions_.size()) {
    throw std::out_of_range("DeviceMemory: bad region id");
  }
  Region& r = regions_[region];
  if (!in_bounds(r.size(), offset, data.size())) {
    throw AccessViolation("DeviceMemory: provision out of bounds in region '" +
                          r.name + "'");
  }
  std::copy(data.begin(), data.end(), r.own().begin() + offset);
}

ByteView DeviceMemory::view(RegionId region, bool privileged) const {
  const Region& r = region_at(region);
  check(r, privileged, /*write=*/false, 0, r.size());
  return r.bytes();
}

size_t DeviceMemory::region_size(RegionId region) const {
  return region_at(region).size();
}

const std::string& DeviceMemory::region_name(RegionId region) const {
  return region_at(region).name;
}

size_t DeviceMemory::total_size() const {
  size_t total = 0;
  for (const auto& r : regions_) total += r.size();
  return total;
}

size_t DeviceMemory::private_bytes() const {
  size_t total = 0;
  for (const auto& r : regions_) total += r.data.size();
  return total;
}

}  // namespace erasmus::hw
