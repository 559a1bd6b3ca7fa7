// Tests for the shared-weight replica machinery: WeightStore freeze/map,
// Module::BindWeights pointer identity across replicas, the memory proxy
// (distinct allocations, not Nx copies), forced-scalar bitwise exactness,
// the file-format validation, and the guards that keep the shared blob
// immutable.

#include <cstdio>
#include <fstream>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "nn/weight_store.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace rpt {
namespace {

TransformerConfig SmallConfig(int64_t vocab) {
  TransformerConfig config;
  config.vocab_size = vocab;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_encoder_layers = 1;
  config.num_decoder_layers = 1;
  config.ffn_dim = 64;
  config.max_seq_len = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(WeightStoreTest, FreezeCapturesEveryParameterAligned) {
  Rng rng(10);
  Seq2SeqTransformer model(SmallConfig(40), &rng);
  auto store = WeightStore::Freeze(model);
  ASSERT_NE(store, nullptr);

  const auto named = model.NamedParameters();
  ASSERT_EQ(store->entries().size(), named.size());
  for (const auto& [name, tensor] : named) {
    const WeightEntry* entry = store->Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->shape, tensor.shape());
    EXPECT_EQ(static_cast<int64_t>(entry->numel), tensor.numel());
    // 64-byte alignment contract: SIMD kernels may assume aligned rows.
    EXPECT_EQ(entry->offset % 16, 0u) << name;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(store->DataFor(*entry)) % 64, 0u)
        << name;
    // Values are a faithful snapshot.
    const std::vector<float> expected = tensor.ToVector();
    const float* frozen = store->DataFor(*entry);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(frozen[i], expected[i]) << name << "[" << i << "]";
    }
  }
  EXPECT_FALSE(store->file_backed());
}

TEST(WeightStoreTest, ReplicasShareOnePhysicalCopy) {
  // The tentpole claim: N bound replicas hold views into one blob, so every
  // parameter's data pointer is identical across replicas and equal to the
  // store's own payload pointer.
  Rng rng_src(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng_src);
  auto store = WeightStore::Freeze(source);

  constexpr int kReplicas = 4;
  std::vector<std::unique_ptr<Seq2SeqTransformer>> replicas;
  for (int r = 0; r < kReplicas; ++r) {
    Rng rng(100 + r);  // deliberately different init than the source
    replicas.push_back(
        std::make_unique<Seq2SeqTransformer>(SmallConfig(40), &rng));
    ASSERT_TRUE(replicas.back()->BindWeights(store).ok());
    EXPECT_FALSE(replicas.back()->training());  // binding implies eval mode
  }

  const auto names = source.NamedParameters();
  for (const auto& [name, unused] : names) {
    const WeightEntry* entry = store->Find(name);
    ASSERT_NE(entry, nullptr) << name;
    const float* blob_ptr = store->DataFor(*entry);
    for (auto& replica : replicas) {
      for (const auto& [rname, rtensor] : replica->NamedParameters()) {
        if (rname != name) continue;
        EXPECT_TRUE(rtensor.is_view()) << rname;
        EXPECT_EQ(rtensor.data(), blob_ptr)
            << rname << " is a private copy, not a view into the store";
      }
    }
  }
}

TEST(WeightStoreTest, DistinctAllocationSumIsOneCopyNotN) {
  // RSS proxy: the set of *distinct* parameter buffers across 4 replicas
  // must cover the store blob once, not four private copies. Without
  // sharing, unique bytes would be ~4x the parameter payload.
  Rng rng_src(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng_src);
  auto store = WeightStore::Freeze(source);

  std::vector<std::unique_ptr<Seq2SeqTransformer>> replicas;
  std::set<const float*> distinct;
  size_t total_view_floats = 0;  // sum over all replica params (the Nx view)
  size_t distinct_floats = 0;    // sum over unique buffers (the real cost)
  for (int r = 0; r < 4; ++r) {
    Rng rng(200 + r);
    replicas.push_back(
        std::make_unique<Seq2SeqTransformer>(SmallConfig(40), &rng));
    ASSERT_TRUE(replicas.back()->BindWeights(store).ok());
    for (const Tensor& p : replicas.back()->Parameters()) {
      total_view_floats += static_cast<size_t>(p.numel());
      if (distinct.insert(p.data()).second) {
        distinct_floats += static_cast<size_t>(p.numel());
      }
    }
  }
  // One copy's worth of payload, not four.
  EXPECT_EQ(distinct_floats * 4, total_view_floats);
  EXPECT_LE(distinct_floats, store->total_floats());
  // Every distinct buffer lives inside the store's blob range.
  const float* lo = store->DataFor(store->entries().front());
  for (const float* p : distinct) {
    EXPECT_GE(p, lo);
    EXPECT_LT(p, lo + store->total_floats());
  }
}

TEST(WeightStoreTest, BoundReplicaIsBitwiseEqualToSourceUnderScalar) {
  // A replica bound to the frozen store, with dispatch forced to scalar,
  // reproduces the source model's outputs bit for bit — even though the
  // replica was initialized from a different seed.
  Rng rng_src(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng_src);
  source.SetTraining(false);
  auto store = WeightStore::Freeze(source);

  Rng rng_rep(77);
  Seq2SeqTransformer replica(SmallConfig(40), &rng_rep);
  ASSERT_TRUE(replica.BindWeights(store).ok());

  TokenBatch src = TokenBatch::Pack({{1, 2, 3, 4}, {5, 6, 7}}, 0);
  TokenBatch tgt = TokenBatch::Pack({{1, 2, 3}, {4, 5, 6}}, 0);
  Rng fwd_rng(1);  // unused at dropout 0 / eval mode, but required by API
  // Inference-only comparison: without this, the source model (whose params
  // require grad) would build an autograd graph that only Backward() frees.
  NoGradGuard no_grad;
  ScopedTensorBackendOverride scalar(TensorBackend::kScalar);
  const std::vector<float> expected =
      source.Forward(src, tgt, &fwd_rng).ToVector();
  const std::vector<float> got =
      replica.Forward(src, tgt, &fwd_rng).ToVector();
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], got[i]) << "diverged at flat index " << i;
  }
}

TEST(WeightStoreTest, SaveMapRoundTripIsBitwiseIdentical) {
  Rng rng(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng);
  source.SetTraining(false);
  auto store = WeightStore::Freeze(source);

  const std::string path = "/tmp/rpt_test_weight_store.bin";
  ASSERT_TRUE(store->SaveToFile(path).ok());
  auto mapped = WeightStore::MapFromFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ASSERT_EQ((*mapped)->entries().size(), store->entries().size());
  ASSERT_EQ((*mapped)->total_floats(), store->total_floats());
  for (const WeightEntry& entry : store->entries()) {
    const WeightEntry* other = (*mapped)->Find(entry.name);
    ASSERT_NE(other, nullptr) << entry.name;
    EXPECT_EQ(other->shape, entry.shape);
    EXPECT_EQ(other->offset, entry.offset);
    const float* a = store->DataFor(entry);
    const float* b = (*mapped)->DataFor(*other);
    for (size_t i = 0; i < entry.numel; ++i) {
      ASSERT_EQ(a[i], b[i]) << entry.name << "[" << i << "]";
    }
  }

  // A replica bound to the mapped store serves the same bits.
  Rng rng_rep(55);
  Seq2SeqTransformer replica(SmallConfig(40), &rng_rep);
  ASSERT_TRUE(replica.BindWeights(*mapped).ok());
  TokenBatch src = TokenBatch::Pack({{1, 2, 3}}, 0);
  TokenBatch tgt = TokenBatch::Pack({{1, 2}}, 0);
  Rng fwd_rng(1);
  NoGradGuard no_grad;
  ScopedTensorBackendOverride scalar(TensorBackend::kScalar);
  EXPECT_EQ(source.Forward(src, tgt, &fwd_rng).ToVector(),
            replica.Forward(src, tgt, &fwd_rng).ToVector());
  std::remove(path.c_str());
}

/// Header fields of a store file, written verbatim by WriteRawStore so a
/// test can plant sizes that SaveToFile never writes.
struct RawStore {
  std::vector<WeightEntry> entries;
  uint64_t table_bytes = 0;  // 0 writes the real table size
  uint64_t blob_floats = 0;  // the preamble field
  size_t payload_floats = 0;  // zero floats actually written as the blob
};

/// Writes `raw` in the SaveToFile format (see weight_store.h).
void WriteRawStore(const std::string& path, const RawStore& raw) {
  BinaryWriter table;
  table.WriteU64(raw.entries.size());
  for (const WeightEntry& entry : raw.entries) {
    table.WriteString(entry.name);
    table.WriteI64Vector(entry.shape);
    table.WriteU64(entry.offset);
    table.WriteU64(entry.numel);
  }
  const size_t preamble_bytes = 32;
  const size_t blob_start =
      (preamble_bytes + table.bytes().size() + 63) / 64 * 64;
  BinaryWriter out;
  out.WriteU32(0x52505457);  // "RPTW"
  out.WriteU32(1);
  out.WriteU64(raw.table_bytes != 0 ? raw.table_bytes : table.bytes().size());
  out.WriteU64(blob_start);
  out.WriteU64(raw.blob_floats);
  std::vector<uint8_t> bytes = out.bytes();
  bytes.insert(bytes.end(), table.bytes().begin(), table.bytes().end());
  bytes.resize(blob_start + raw.payload_floats * sizeof(float), 0);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(WeightStoreTest, MapRejectsTruncatedAndCorruptFiles) {
  Rng rng(10);
  Linear lin(8, 6, &rng);
  auto store = WeightStore::Freeze(lin);
  const std::string path = "/tmp/rpt_test_weight_store_bad.bin";
  ASSERT_TRUE(store->SaveToFile(path).ok());

  // Truncate the blob mid-payload.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto full = in.tellg();
    in.close();
    std::ifstream src(path, std::ios::binary);
    std::vector<char> bytes(static_cast<size_t>(full) - 16);
    src.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(path + ".trunc", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(WeightStore::MapFromFile(path + ".trunc").ok());

  // Corrupt the magic.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    const char junk[4] = {'J', 'U', 'N', 'K'};
    f.write(junk, 4);
  }
  EXPECT_FALSE(WeightStore::MapFromFile(path).ok());

  EXPECT_FALSE(WeightStore::MapFromFile("/tmp/rpt_no_such_store.bin").ok());

  // Sizes chosen to wrap the checks' arithmetic. First the honest layout of
  // the Linear(8, 6) store above, which must map.
  RawStore raw;
  raw.entries = {{"weight", {8, 6}, 0, 48}, {"bias", {6}, 48, 6}};
  raw.blob_floats = 64;
  raw.payload_floats = 64;
  const std::string crafted = path + ".crafted";
  WriteRawStore(crafted, raw);
  ASSERT_TRUE(WeightStore::MapFromFile(crafted).ok());

  // blob_floats + 2^62 makes blob_start + blob_floats * 4 wrap back to the
  // file size, and an entry offset of 2^40 then points far outside the
  // mapping.
  RawStore wrapped_blob = raw;
  wrapped_blob.blob_floats += uint64_t{1} << 62;
  wrapped_blob.entries[0].offset = size_t{1} << 40;
  WriteRawStore(crafted, wrapped_blob);
  EXPECT_FALSE(WeightStore::MapFromFile(crafted).ok());

  // An entry offset so large that offset + numel wraps below blob_floats.
  RawStore wrapped_entry = raw;
  wrapped_entry.entries[1].offset = ~size_t{0} - 2;
  WriteRawStore(crafted, wrapped_entry);
  EXPECT_FALSE(WeightStore::MapFromFile(crafted).ok());

  // A shape whose element count overflows int64 (2^32 * 2^32 wraps to the
  // stated numel of 0).
  RawStore huge_shape = raw;
  huge_shape.entries.push_back(
      {"huge", {int64_t{1} << 32, int64_t{1} << 32}, 0, 0});
  WriteRawStore(crafted, huge_shape);
  EXPECT_FALSE(WeightStore::MapFromFile(crafted).ok());

  // A table size that wraps preamble + table_bytes below blob_start.
  RawStore wrapped_table = raw;
  wrapped_table.table_bytes = ~uint64_t{0} - 15;
  WriteRawStore(crafted, wrapped_table);
  EXPECT_FALSE(WeightStore::MapFromFile(crafted).ok());

  std::remove(path.c_str());
  std::remove((path + ".trunc").c_str());
  std::remove(crafted.c_str());
}

TEST(WeightStoreTest, BindRejectsMissingEntryAndShapeMismatch) {
  Rng rng(1);
  Linear small(4, 3, &rng);
  auto store = WeightStore::Freeze(small);

  Rng rng2(2);
  Linear wrong_shape(5, 3, &rng2);
  Status s = wrong_shape.BindWeights(store);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  Rng rng3(3);
  Seq2SeqTransformer missing(SmallConfig(20), &rng3);
  s = missing.BindWeights(store);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WeightStoreTest, LoadStateRefusesBoundModule) {
  // The blob is shared and possibly mmap'd read-only: loading a checkpoint
  // into a bound replica must be refused, not silently corrupt neighbors.
  Rng rng(10);
  Linear source(8, 6, &rng);
  const std::string path = "/tmp/rpt_test_bound_load.bin";
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());

  auto store = WeightStore::Freeze(source);
  Rng rng2(11);
  Linear bound(8, 6, &rng2);
  ASSERT_TRUE(bound.BindWeights(store).ok());
  Status s = LoadCheckpoint(&bound, path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  std::remove(path.c_str());
}

TEST(WeightStoreTest, ViewsCannotRequireGrad) {
  Rng rng(10);
  Linear source(8, 6, &rng);
  auto store = WeightStore::Freeze(source);
  Rng rng2(11);
  Linear bound(8, 6, &rng2);
  ASSERT_TRUE(bound.BindWeights(store).ok());
  for (const Tensor& p : bound.Parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  Tensor view = bound.Parameters()[0];
  EXPECT_DEATH(view.set_requires_grad(true), "view");
}

TEST(WeightStoreTest, StoreOutlivesItsLastReplicaHandle) {
  // The keepalive contract: dropping the caller's store reference must not
  // invalidate bound replicas — the views hold the blob alive.
  Rng rng(10);
  Linear source(8, 6, &rng);
  source.SetTraining(false);
  Rng data_rng(3);
  Tensor x = Tensor::Randn({2, 8}, 1.0f, &data_rng);
  NoGradGuard no_grad;
  const std::vector<float> expected = source.Forward(x).ToVector();

  Rng rng2(11);
  Linear bound(8, 6, &rng2);
  {
    auto store = WeightStore::Freeze(source);
    ASSERT_TRUE(bound.BindWeights(store).ok());
  }  // last external store reference gone
  EXPECT_EQ(bound.Forward(x).ToVector(), expected);
}

}  // namespace
}  // namespace rpt
