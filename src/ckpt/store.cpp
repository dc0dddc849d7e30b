#include "ckpt/store.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "ckpt/serial.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"
#include "util/parse.hpp"

namespace hg::ckpt {

namespace fs = std::filesystem;

namespace {

// Data file header: magic + format version + payload size + payload CRC.
constexpr char kMagic[4] = {'H', 'G', 'C', 'K'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;
constexpr const char* kManifestName = "MANIFEST.json";
constexpr const char* kManifestSchema = "halfgnn-ckpt-v1";
constexpr int kMaxGeneration = INT_MAX - 1;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("ckpt: cannot open '" + p.string() + "'");
  std::string out;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return out;
}

// The atomic half of the protocol: all bytes land under `<final>.tmp`,
// then one rename makes them visible. A reader never sees a partial file
// under the final name (the torncrash plan bypasses this deliberately to
// model a power loss that persisted the rename but not the data blocks).
void write_file_atomic(const fs::path& final_path, const std::string& bytes) {
  const fs::path tmp = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ckpt: cannot write '" + tmp.string() + "'");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("ckpt: short write to '" + tmp.string() + "'");
    }
  }
  fs::rename(tmp, final_path);
}

void write_file_raw(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("ckpt: cannot write '" + p.string() + "'");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The generation in a data file's name; -1 when the name is not a ckpt
// data file. A generation is a whole number in [0, INT_MAX - 1], so the
// next one always fits an int.
int parse_generation(std::string_view name) {
  constexpr std::string_view prefix = "ckpt-";
  constexpr std::string_view suffix = ".bin";
  if (!name.starts_with(prefix) || !name.ends_with(suffix)) return -1;
  std::string_view digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  // data_file_name pads the number with zeros.
  while (digits.size() > 1 && digits.front() == '0') digits.remove_prefix(1);
  return util::to_int<int>(digits, 0, kMaxGeneration).value_or(-1);
}

// A manifest number that must be a whole number in [0, max]; throws (the
// manifest is then ignored like a corrupt one) for anything else,
// including a missing field, NaN or a value no integer type can hold.
double manifest_number(const obs::Json& entry, const char* key, double max) {
  const obs::Json* v = entry.find(key);
  if (v == nullptr || !v->is_number() || !(v->as_double() >= 0) ||
      v->as_double() > max || v->as_double() != std::floor(v->as_double())) {
    throw std::runtime_error(std::string("bad manifest ") + key);
  }
  return v->as_double();
}

std::string frame(const TrainState& st) {
  Writer payload;
  payload(st);
  const std::string& body = payload.data();
  Writer head;
  for (const char c : kMagic) head.u8(static_cast<std::uint8_t>(c));
  head.u32(kFormatVersion);
  head.u64(body.size());
  head.u32(crc32(body));
  std::string out = head.take();
  out += body;
  return out;
}

// Validates one data file end-to-end (magic, version, size, CRC, decode,
// obs images).
// Returns a reason on failure, empty string on success.
std::string try_decode(const std::string& bytes, TrainState& out) {
  if (bytes.size() < kHeaderBytes) return "truncated header";
  Reader head(bytes.data(), kHeaderBytes);
  for (const char c : kMagic) {
    if (head.u8() != static_cast<std::uint8_t>(c)) return "bad magic";
  }
  const std::uint32_t version = head.u32();
  if (version != kFormatVersion) {
    return "unsupported version " + std::to_string(version);
  }
  const std::uint64_t payload_size = head.u64();
  const std::uint32_t want_crc = head.u32();
  if (bytes.size() - kHeaderBytes != payload_size) {
    return "torn payload (" + std::to_string(bytes.size() - kHeaderBytes) +
           " of " + std::to_string(payload_size) + " bytes)";
  }
  const std::uint32_t got_crc =
      crc32(bytes.data() + kHeaderBytes, payload_size);
  if (got_crc != want_crc) return "checksum mismatch";
  try {
    Reader body(bytes.data() + kHeaderBytes,
                static_cast<std::size_t>(payload_size));
    body(out);
    if (!body.done()) return "trailing bytes after payload";
  } catch (const std::exception& e) {
    return e.what();
  }
  // The obs images are opaque bytes to the payload; the trainer decodes
  // them only after load() has picked this generation, where a malformed
  // one would abort the resume. Trial-decode them into scratch objects so
  // such a generation falls back like a torn one.
  const auto trial = [](const std::string& blob, auto&& scratch,
                        const char* name) -> std::string {
    if (blob.empty()) return {};
    try {
      scratch.load_state(blob);
    } catch (const std::exception& e) {
      return std::string(name) + " blob: " + e.what();
    }
    return {};
  };
  std::string why = trial(out.registry_blob, obs::Registry(), "registry");
  if (why.empty()) why = trial(out.tracer_blob, obs::Tracer(), "tracer");
  return why;
}

}  // namespace

std::string Store::data_file_name(int generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06d.bin", generation);
  return buf;
}

Store::Store(StoreConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.dir.empty()) {
    throw std::invalid_argument("ckpt: checkpoint directory is empty");
  }
  cfg_.keep = std::max(2, cfg_.keep);
  fs::create_directories(cfg_.dir);

  // Recover the committed-generation index. A corrupt manifest is not
  // fatal: the data files are self-validating, so load() can dir-scan.
  const fs::path manifest = fs::path(cfg_.dir) / kManifestName;
  if (fs::exists(manifest)) {
    try {
      const obs::Json doc = obs::Json::parse(read_file(manifest));
      const obs::Json* schema = doc.find("schema");
      if (schema == nullptr || schema->as_string() != kManifestSchema) {
        throw std::runtime_error("bad schema");
      }
      if (const obs::Json* entries = doc.find("entries")) {
        for (const obs::Json& e : entries->items()) {
          Entry ent;
          ent.gen = static_cast<int>(manifest_number(e, "gen", kMaxGeneration));
          ent.epoch = static_cast<int>(manifest_number(e, "epoch", INT_MAX));
          // Doubles hold whole byte counts exactly up to 2^53.
          ent.bytes =
              static_cast<std::uint64_t>(manifest_number(e, "bytes", 0x1p53));
          ent.crc = static_cast<std::uint32_t>(
              manifest_number(e, "crc", UINT32_MAX));
          entries_.push_back(ent);
        }
      }
    } catch (const std::exception&) {
      entries_.clear();
    }
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.gen < b.gen; });

  // Next generation must clear every existing file, indexed or not (a
  // crash between data commit and manifest commit leaves an orphan).
  for (const Entry& e : entries_) next_gen_ = std::max(next_gen_, e.gen + 1);
  for (const auto& de : fs::directory_iterator(cfg_.dir)) {
    const int gen = parse_generation(de.path().filename().string());
    if (gen >= 0) next_gen_ = std::max(next_gen_, gen + 1);
  }
}

void Store::commit_manifest() {
  obs::Json doc = obs::Json::object();
  doc.set("schema", kManifestSchema);
  doc.set("version", static_cast<std::uint64_t>(kFormatVersion));
  obs::Json arr = obs::Json::array();
  for (const Entry& e : entries_) {
    obs::Json ent = obs::Json::object();
    ent.set("gen", static_cast<std::int64_t>(e.gen));
    ent.set("file", data_file_name(e.gen));
    ent.set("epoch", static_cast<std::int64_t>(e.epoch));
    ent.set("bytes", e.bytes);
    ent.set("crc", static_cast<std::uint64_t>(e.crc));
    arr.push(std::move(ent));
  }
  doc.set("entries", std::move(arr));
  write_file_atomic(fs::path(cfg_.dir) / kManifestName, doc.dump(2));
}

void Store::prune() {
  while (entries_.size() > static_cast<std::size_t>(cfg_.keep)) {
    std::error_code ec;  // best-effort: a vanished file is already pruned
    fs::remove(fs::path(cfg_.dir) / data_file_name(entries_.front().gen), ec);
    entries_.erase(entries_.begin());
  }
}

void Store::write(const TrainState& st) {
  if (next_gen_ > kMaxGeneration) {
    throw std::runtime_error("ckpt: generation numbers exhausted in '" +
                             cfg_.dir + "'");
  }
  const std::string bytes = frame(st);
  const int gen = next_gen_++;
  const fs::path file = fs::path(cfg_.dir) / data_file_name(gen);

  Entry ent;
  ent.gen = gen;
  ent.epoch = st.epoch;
  ent.bytes = bytes.size();
  ent.crc = crc32(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);

  const bool torn = cfg_.torn_epoch >= 0 && cfg_.torn_epoch == st.epoch &&
                    !torn_fired_;
  if (torn && cfg_.torn_at < bytes.size()) {
    // Power loss that persisted the rename but not all data blocks: the
    // manifest indexes the full intended write, the file stops short.
    // load() must reject this generation by size/CRC and fall back.
    torn_fired_ = true;
    entries_.push_back(ent);
    commit_manifest();
    write_file_raw(file, bytes.substr(0, static_cast<std::size_t>(cfg_.torn_at)));
    throw SimulatedCrash(st.epoch, cfg_.torn_at, data_file_name(gen));
  }

  write_file_atomic(file, bytes);
  entries_.push_back(ent);
  prune();
  commit_manifest();
  ++writes_;
  bytes_written_ += bytes.size();

  if (torn) {
    // BYTES past the end of the file: the checkpoint committed fully,
    // then the process died — a clean kill, the simplest resume case.
    torn_fired_ = true;
    throw SimulatedCrash(st.epoch, cfg_.torn_at, data_file_name(gen));
  }
}

LoadInfo Store::load(obs::prof::Profiler* prof) {
  LoadInfo info;

  // Candidate generations, newest first: the manifest index plus any
  // orphaned data files a crash left unindexed.
  std::set<int> gens;
  for (const Entry& e : entries_) gens.insert(e.gen);
  for (const auto& de : fs::directory_iterator(cfg_.dir)) {
    const int gen = parse_generation(de.path().filename().string());
    if (gen >= 0) gens.insert(gen);
  }

  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const int gen = *it;
    const fs::path file = fs::path(cfg_.dir) / data_file_name(gen);
    std::string reason;
    TrainState st;
    if (!fs::exists(file)) {
      reason = "data file missing";
    } else {
      reason = try_decode(read_file(file), st);
      if (reason.empty()) {
        // Cross-check against the manifest's intent when indexed.
        for (const Entry& e : entries_) {
          if (e.gen != gen) continue;
          const std::uint64_t got = fs::file_size(file);
          if (got != e.bytes) {
            reason = "manifest size mismatch";
          }
          break;
        }
      }
    }
    if (reason.empty()) {
      info.found = true;
      info.generation = gen;
      info.state = std::move(st);
      break;
    }
    ++info.rejected;
    if (prof != nullptr) {
      prof->audit("ckpt_fallback", data_file_name(gen), reason);
    }
  }

  // These publishes happen before the trainer restores the snapshot's
  // registry/tracer blobs (which overwrite them), so the final artifacts
  // of a resumed run stay byte-identical to the uninterrupted run. The
  // durable evidence of a fallback is the audit record above plus the
  // LoadInfo counters surfaced by bench_crash and train_cli.
  auto& reg = obs::registry();
  if (reg.enabled()) {
    reg.add_counter("ckpt.load.attempts", 1);
    if (info.rejected > 0) reg.add_counter("ckpt.load.rejected", info.rejected);
    if (info.found) reg.set_gauge("ckpt.load.generation", info.generation);
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("ckpt:load", "ckpt",
                          {{"found", info.found ? std::int64_t{1} : std::int64_t{0}},
                           {"generation", std::int64_t{info.generation}},
                           {"rejected", std::int64_t{info.rejected}}});
  }
  return info;
}

}  // namespace hg::ckpt
