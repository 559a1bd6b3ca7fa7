// WeightStore: one immutable weight blob shared by N model replicas.
//
// Freeze() snapshots a trained Module's NamedParameters() into a single
// 64-byte-aligned, refcounted blob with a name -> (offset, shape) index.
// Replicas then call Module::BindWeights(store), which rebinds each
// parameter tensor *in place* as a view into the blob (Tensor::BindTo), so
// adding a replica costs the module object and its activations only — not
// another copy of the parameters. The blob can also be saved to disk and
// mapped back read-only (MapFromFile), letting many processes share one
// physical copy via the page cache.
//
// Blob layout: entries in NamedParameters() order, each payload aligned up
// to 64 bytes (16 floats) so SIMD kernels can assume aligned rows.
//
// File format (little-endian):
//   preamble  u32 magic 'RPTW', u32 version, u64 table_bytes,
//             u64 blob_start (bytes from file start, 64-aligned),
//             u64 blob_floats
//   table     u64 count, then per entry: string name, i64vec shape,
//             u64 offset_floats, u64 numel   (BinaryWriter encoding)
//   padding   zeros up to blob_start
//   blob      blob_floats * 4 bytes of raw fp32 payload

#ifndef RPT_NN_WEIGHT_STORE_H_
#define RPT_NN_WEIGHT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace rpt {

class Module;

struct WeightEntry {
  std::string name;
  std::vector<int64_t> shape;
  size_t offset = 0;  // in floats from the blob base; 64-byte aligned
  size_t numel = 0;
};

class WeightStore {
 public:
  /// Snapshots `module`'s current parameter values into a new store.
  static std::shared_ptr<const WeightStore> Freeze(const Module& module);

  /// Maps a store previously written by SaveToFile. The blob is mapped
  /// read-only (mmap) when the platform allows it, falling back to a heap
  /// copy otherwise; either way the returned store is self-contained.
  static Result<std::shared_ptr<const WeightStore>> MapFromFile(
      const std::string& path);

  /// Writes the store (header + raw blob) to `path` via a temp file +
  /// atomic rename.
  Status SaveToFile(const std::string& path) const;

  /// nullptr when no entry has that dotted name.
  const WeightEntry* Find(const std::string& name) const;

  const float* DataFor(const WeightEntry& entry) const {
    return base_ + entry.offset;
  }

  /// Token that keeps the blob (and this store) alive; what parameter views
  /// hold as their storage anchor.
  std::shared_ptr<const void> KeepaliveFor(
      const std::shared_ptr<const WeightStore>& self) const {
    return std::shared_ptr<const void>(self, blob_.get());
  }

  const std::vector<WeightEntry>& entries() const { return entries_; }
  size_t total_floats() const { return total_floats_; }
  size_t blob_bytes() const { return total_floats_ * sizeof(float); }
  bool file_backed() const { return file_backed_; }

  WeightStore(const WeightStore&) = delete;
  WeightStore& operator=(const WeightStore&) = delete;
  ~WeightStore() = default;

 private:
  WeightStore() = default;

  std::vector<WeightEntry> entries_;
  std::unordered_map<std::string, size_t> index_;
  const float* base_ = nullptr;
  size_t total_floats_ = 0;
  bool file_backed_ = false;
  // Heap buffer or mmap region; its deleter releases the memory.
  std::shared_ptr<const void> blob_;
};

}  // namespace rpt

#endif  // RPT_NN_WEIGHT_STORE_H_
