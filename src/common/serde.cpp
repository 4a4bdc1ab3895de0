#include "common/serde.h"

namespace erasmus {

void ByteWriter::u16(uint16_t v) {
  u8(static_cast<uint8_t>(v));
  u8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::u32(uint32_t v) {
  u16(static_cast<uint16_t>(v));
  u16(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::u64(uint64_t v) {
  u32(static_cast<uint32_t>(v));
  u32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::var_bytes(ByteView data) {
  u32(static_cast<uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::u32_list(const std::vector<uint32_t>& values) {
  u32(static_cast<uint32_t>(values.size()));
  for (const uint32_t v : values) u32(v);
}

bool ByteReader::ensure(size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::u8() {
  if (!ensure(1)) return 0;
  return data_[pos_++];
}

uint16_t ByteReader::u16() {
  if (!ensure(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t ByteReader::u32() {
  if (!ensure(4)) return 0;
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

uint64_t ByteReader::u64() {
  if (!ensure(8)) return 0;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Bytes ByteReader::raw(size_t n) {
  if (!ensure(n)) return {};
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Bytes ByteReader::var_bytes() {
  const uint32_t n = u32();
  return raw(n);
}

std::vector<uint32_t> ByteReader::u32_list() {
  const uint32_t count = u32();
  if (!ok_ || count > remaining() / 4) {
    ok_ = false;
    return {};
  }
  std::vector<uint32_t> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) values.push_back(u32());
  return values;
}

}  // namespace erasmus
