#include "nn/weight_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define RPT_WEIGHT_STORE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "nn/module.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace rpt {

namespace {

constexpr uint32_t kMagic = 0x52505457;  // "RPTW"
constexpr uint32_t kVersion = 1;
constexpr size_t kAlignBytes = 64;
constexpr size_t kAlignFloats = kAlignBytes / sizeof(float);
constexpr size_t kPreambleBytes = 4 + 4 + 8 + 8 + 8;

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

std::shared_ptr<float> AllocateAligned(size_t floats) {
  void* p = ::operator new(std::max<size_t>(floats, 1) * sizeof(float),
                           std::align_val_t(kAlignBytes));
  return std::shared_ptr<float>(static_cast<float*>(p), [](float* q) {
    ::operator delete(q, std::align_val_t(kAlignBytes));
  });
}

#ifdef RPT_WEIGHT_STORE_HAS_MMAP
// Owns one read-only mapping of a whole store file.
struct MmapRegion {
  void* addr = nullptr;
  size_t len = 0;
  ~MmapRegion() {
    if (addr != nullptr) ::munmap(addr, len);
  }
};
#endif

// Element count of `shape`; -1 for a negative dimension or a product that
// overflows int64 (both only come from a corrupt file).
int64_t EntryNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0 || __builtin_mul_overflow(n, d, &n)) return -1;
  }
  return n;
}

}  // namespace

std::shared_ptr<const WeightStore> WeightStore::Freeze(const Module& module) {
  auto named = module.NamedParameters();
  auto store = std::shared_ptr<WeightStore>(new WeightStore());

  size_t cursor = 0;
  store->entries_.reserve(named.size());
  for (const auto& [name, tensor] : named) {
    WeightEntry entry;
    entry.name = name;
    entry.shape = tensor.shape();
    entry.numel = static_cast<size_t>(tensor.numel());
    entry.offset = cursor;
    cursor = AlignUp(cursor + entry.numel, kAlignFloats);
    store->index_.emplace(name, store->entries_.size());
    store->entries_.push_back(std::move(entry));
  }
  store->total_floats_ = cursor;

  auto blob = AllocateAligned(cursor);
  std::memset(blob.get(), 0, cursor * sizeof(float));
  for (size_t i = 0; i < named.size(); ++i) {
    std::memcpy(blob.get() + store->entries_[i].offset, named[i].second.data(),
                store->entries_[i].numel * sizeof(float));
  }
  store->base_ = blob.get();
  store->blob_ = std::move(blob);
  return store;
}

Status WeightStore::SaveToFile(const std::string& path) const {
  BinaryWriter table;
  table.WriteU64(entries_.size());
  for (const auto& entry : entries_) {
    table.WriteString(entry.name);
    table.WriteI64Vector(entry.shape);
    table.WriteU64(entry.offset);
    table.WriteU64(entry.numel);
  }
  const size_t table_bytes = table.bytes().size();
  const size_t blob_start = AlignUp(kPreambleBytes + table_bytes, kAlignBytes);

  BinaryWriter preamble;
  preamble.Reserve(kPreambleBytes);
  preamble.WriteU32(kMagic);
  preamble.WriteU32(kVersion);
  preamble.WriteU64(table_bytes);
  preamble.WriteU64(blob_start);
  preamble.WriteU64(total_floats_);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(preamble.bytes().data()),
              static_cast<std::streamsize>(preamble.bytes().size()));
    out.write(reinterpret_cast<const char*>(table.bytes().data()),
              static_cast<std::streamsize>(table_bytes));
    const std::string pad(blob_start - kPreambleBytes - table_bytes, '\0');
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    out.write(reinterpret_cast<const char*>(base_),
              static_cast<std::streamsize>(total_floats_ * sizeof(float)));
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Result<std::shared_ptr<const WeightStore>> WeightStore::MapFromFile(
    const std::string& path) {
  // Header (preamble + table) is read through a stream; only the blob is
  // mapped, so parsing never touches more than the table pages.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> preamble_bytes(kPreambleBytes);
  in.read(reinterpret_cast<char*>(preamble_bytes.data()),
          static_cast<std::streamsize>(kPreambleBytes));
  if (!in) return Status::InvalidArgument(path + ": truncated preamble");
  BinaryReader preamble(std::move(preamble_bytes));
  const uint32_t magic = *preamble.ReadU32();
  const uint32_t version = *preamble.ReadU32();
  const uint64_t table_bytes = *preamble.ReadU64();
  const uint64_t blob_start = *preamble.ReadU64();
  const uint64_t blob_floats = *preamble.ReadU64();
  if (magic != kMagic) {
    return Status::InvalidArgument(path + ": not a weight store (bad magic)");
  }
  if (version != kVersion) {
    return Status::InvalidArgument(path + ": unsupported weight store version " +
                                   std::to_string(version));
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  // Every size comes from the file, so no check may add or multiply them:
  // a crafted header would wrap the sum and pass.
  if (blob_start % kAlignBytes != 0 || blob_start < kPreambleBytes ||
      table_bytes > blob_start - kPreambleBytes || blob_start > file_size ||
      (file_size - blob_start) % sizeof(float) != 0 ||
      blob_floats != (file_size - blob_start) / sizeof(float)) {
    return Status::InvalidArgument(path + ": corrupt weight store geometry");
  }

  std::vector<uint8_t> table_buf(table_bytes);
  in.seekg(static_cast<std::streamoff>(kPreambleBytes));
  in.read(reinterpret_cast<char*>(table_buf.data()),
          static_cast<std::streamsize>(table_bytes));
  if (!in) return Status::InvalidArgument(path + ": truncated entry table");
  BinaryReader table(std::move(table_buf));
  auto count = table.ReadU64();
  if (!count.ok()) return count.status();

  auto store = std::shared_ptr<WeightStore>(new WeightStore());
  store->entries_.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto name = table.ReadString();
    if (!name.ok()) return name.status();
    auto shape = table.ReadI64Vector();
    if (!shape.ok()) return shape.status();
    auto offset = table.ReadU64();
    if (!offset.ok()) return offset.status();
    auto numel = table.ReadU64();
    if (!numel.ok()) return numel.status();
    if (EntryNumel(*shape) != static_cast<int64_t>(*numel) ||
        *numel > blob_floats || *offset > blob_floats - *numel) {
      return Status::InvalidArgument(path + ": corrupt entry " + *name);
    }
    WeightEntry entry;
    entry.name = *name;
    entry.shape = std::move(*shape);
    entry.offset = *offset;
    entry.numel = *numel;
    store->index_.emplace(entry.name, store->entries_.size());
    store->entries_.push_back(std::move(entry));
  }
  if (!table.AtEnd()) {
    return Status::InvalidArgument(path + ": trailing bytes in entry table");
  }
  store->total_floats_ = blob_floats;

#ifdef RPT_WEIGHT_STORE_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    void* addr =
        ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping holds its own reference
    if (addr != MAP_FAILED) {
      auto region = std::make_shared<MmapRegion>();
      region->addr = addr;
      region->len = file_size;
      store->base_ = reinterpret_cast<const float*>(
          static_cast<const uint8_t*>(addr) + blob_start);
      store->blob_ = std::move(region);
      store->file_backed_ = true;
      return std::shared_ptr<const WeightStore>(store);
    }
  }
#endif
  // Fallback: copy the blob onto the heap.
  auto blob = AllocateAligned(blob_floats);
  in.seekg(static_cast<std::streamoff>(blob_start));
  in.read(reinterpret_cast<char*>(blob.get()),
          static_cast<std::streamsize>(blob_floats * sizeof(float)));
  if (!in) return Status::InvalidArgument(path + ": truncated blob");
  store->base_ = blob.get();
  store->blob_ = std::move(blob);
  return std::shared_ptr<const WeightStore>(store);
}

const WeightEntry* WeightStore::Find(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return &entries_[it->second];
}

}  // namespace rpt
