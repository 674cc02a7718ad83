// Result checks for the service benchmark.
//
// Every checker judges a run from the benchmark's own record of what it sent
// and when it observed each reply.  None of them reads the service's
// counters or internal state other than the final contents of a map, so a
// bug that corrupts both a result and the program's own bookkeeping still
// shows here.  selftest.cpp feeds each checker a deliberately wrong
// history and requires that it fails.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sbench {

enum class OpKind : std::uint8_t { kGet = 0, kPut, kErase, kScan, kSwap };

inline bool is_write(OpKind k) {
  return k == OpKind::kPut || k == OpKind::kErase || k == OpKind::kSwap;
}

/// One request as the client saw it.  Written to the per-client log file
/// during the run and read back after the service has drained.
struct OpRecord {
  std::uint64_t t_send = 0;  // clock read just before the request left
  std::uint64_t t_done = 0;  // clock read when the client saw the reply
  std::int64_t key = 0;      // swap: first key
  std::int64_t value = 0;    // put: value written; get: value read; swap: second key
  OpKind kind = OpKind::kGet;
  std::uint8_t status = 0;  // otb::service::SvcStatus; 1 == kOk
  bool ok = false;          // get: present; put: key was absent; erase: was present
};

inline constexpr std::uint8_t kStatusOk = 1;

// ---- kv value encoding ------------------------------------------------------
//
// A put writes (key << 40) | (writer << 32) | seq: the value names the key
// it belongs under and the one put that wrote it (writer = client or
// connection index + 1, seq = that writer's put count).  Seed values use
// writer 0, so no put can ever write one.

inline constexpr std::int64_t encode_value(std::int64_t key, unsigned writer,
                                           std::uint32_t seq) {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(key) << 40) |
                                   (std::uint64_t{writer & 0xffu} << 32) | seq);
}
inline constexpr std::int64_t value_key(std::int64_t v) { return v >> 40; }
inline constexpr std::int64_t seed_value(std::int64_t key) {
  return encode_value(key, 0, 0);
}

/// Map contents indexed by key: nullopt = absent.
using KeyState = std::vector<std::optional<std::int64_t>>;

struct Verdict {
  bool ok = true;
  std::uint64_t failures = 0;
  std::string first_error;

  void fail(const char* fmt, long long a = 0, long long b = 0,
            long long c = 0) {
    failures += 1;
    if (!ok) return;
    ok = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, a, b, c);
    first_error = buf;
  }
  void merge(const Verdict& o) {
    if (o.ok) return;
    if (ok) first_error = o.first_error;
    ok = false;
    failures += o.failures;
  }
};

/// kv-large and net-readmostly.  Two properties:
///  * every value a get returned decodes to the key it was read under, and
///    is either that key's seed value or the value of a put to that key
///    that had been sent before the get's reply arrived;
///  * after the load drains, each key's state is the effect of a write to
///    it that no other write to it started after (the seed state if no
///    write to it was acknowledged).  A write W qualifies when W was the
///    last write sent to the key, or its reply arrived no earlier than the
///    last write to the key was sent; anything else was overwritten by a
///    write that began after W had finished — a lost or reordered write.
/// Only acknowledged (status ok) requests count as having happened.
inline Verdict check_kv_history(const KeyState& seed,
                                const std::vector<OpRecord>& ops,
                                const KeyState& final_state) {
  Verdict v;
  const auto nkeys = static_cast<std::int64_t>(seed.size());
  if (final_state.size() != seed.size()) {
    v.fail("final map has %lld key slots, expected %lld",
           static_cast<long long>(final_state.size()), nkeys);
    return v;
  }
  std::unordered_map<std::int64_t, const OpRecord*> put_by_value;
  put_by_value.reserve(ops.size() / 2 + 1);
  std::vector<std::vector<const OpRecord*>> writes(seed.size());
  for (const OpRecord& op : ops) {
    if (op.status != kStatusOk) continue;
    if (op.key < 0 || op.key >= nkeys) {
      v.fail("request on key %lld outside [0, %lld)", op.key, nkeys);
      continue;
    }
    if (op.kind == OpKind::kPut) {
      if (!put_by_value.emplace(op.value, &op).second) {
        v.fail("two puts wrote value %lld", op.value);
      }
    }
    if (op.kind == OpKind::kPut || op.kind == OpKind::kErase) {
      writes[static_cast<std::size_t>(op.key)].push_back(&op);
    }
  }
  for (const OpRecord& op : ops) {
    if (op.status != kStatusOk || op.kind != OpKind::kGet || !op.ok) continue;
    if (op.key < 0 || op.key >= nkeys) continue;
    if (value_key(op.value) != op.key) {
      v.fail("get of key %lld returned value %lld of key %lld", op.key,
             op.value, value_key(op.value));
      continue;
    }
    const auto& s = seed[static_cast<std::size_t>(op.key)];
    if (s && *s == op.value) continue;
    const auto it = put_by_value.find(op.value);
    if (it == put_by_value.end() || it->second->key != op.key) {
      v.fail("get of key %lld returned value %lld that no put wrote", op.key,
             op.value);
    } else if (it->second->t_send > op.t_done) {
      v.fail("get of key %lld returned value %lld before its put was sent",
             op.key, op.value);
    }
  }
  for (std::int64_t k = 0; k < nkeys; ++k) {
    const auto& ws = writes[static_cast<std::size_t>(k)];
    const auto& fin = final_state[static_cast<std::size_t>(k)];
    if (ws.empty()) {
      if (fin != seed[static_cast<std::size_t>(k)]) {
        v.fail("key %lld changed with no acknowledged write (now %lld)", k,
               fin ? *fin : -1);
      }
      continue;
    }
    std::uint64_t last_send = 0;
    for (const OpRecord* w : ws) last_send = std::max(last_send, w->t_send);
    bool explained = false;
    for (const OpRecord* w : ws) {
      if (w->t_send != last_send && w->t_done < last_send) continue;
      if (w->kind == OpKind::kErase ? !fin : (fin && *fin == w->value)) {
        explained = true;
        break;
      }
    }
    if (!explained) {
      v.fail("key %lld ends as %lld, not the effect of any last write (lost "
             "write)",
             k, fin ? *fin : -1);
    }
  }
  return v;
}

// ---- swap-hot-wal -----------------------------------------------------------
//
// The seed values are {base + stride * i : i < n}, dealt to the n keys by a
// seeded permutation.  Swaps only move values between keys, so every
// consistent view of the map is a permutation of that set.

struct SwapUniverse {
  std::int64_t nkeys = 0;
  std::int64_t base = 0;
  std::int64_t stride = 1;

  /// Index of a seed value, or -1 if `v` is not one.
  std::int64_t index_of(std::int64_t v) const {
    const std::int64_t d = v - base;
    if (d < 0 || d % stride != 0 || d / stride >= nkeys) return -1;
    return d / stride;
  }
};

/// A map view (scan result or whole-map snapshot) holds every key in
/// [0, n) exactly once, in order, and its values are a permutation of the
/// seed values.  Used for every scan (a torn scan fails it) and for the
/// live map at stop.
inline Verdict check_permutation(
    const SwapUniverse& u,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& view,
    const char* what) {
  Verdict v;
  if (static_cast<std::int64_t>(view.size()) != u.nkeys) {
    v.fail("holds %lld keys, expected %lld",
           static_cast<long long>(view.size()), u.nkeys);
    v.first_error = std::string(what) + ": " + v.first_error;
    return v;
  }
  std::vector<std::uint64_t> seen(static_cast<std::size_t>((u.nkeys + 63) / 64));
  for (std::size_t i = 0; i < view.size(); ++i) {
    const auto [key, val] = view[i];
    const std::int64_t idx = u.index_of(val);
    if (key != static_cast<std::int64_t>(i)) {
      v.fail("position %lld holds key %lld", static_cast<long long>(i), key);
    } else if (idx < 0) {
      v.fail("key %lld holds %lld, not a seed value", key, val);
    } else {
      std::uint64_t& word = seen[static_cast<std::size_t>(idx / 64)];
      const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
      if ((word & bit) != 0) {
        v.fail("value %lld appears twice (again at key %lld)", val, key);
      }
      word |= bit;
    }
    if (!v.ok) break;
  }
  if (!v.ok) v.first_error = std::string(what) + ": " + v.first_error;
  return v;
}

/// Per-step outcome of a swap script as the client received it.
struct SwapSteps {
  bool ran[4] = {};
  bool ok[4] = {};
  std::int64_t value[4] = {};
};

/// A swap is get a, get b, put a <- step 1, put b <- step 0.  Both gets
/// must have run and found their key with a seed value, and both puts must
/// have run.  A put's ok means "the key was absent", so the puts report
/// false and the script-level ok is false by design; neither is checked.
inline Verdict check_swap(const SwapUniverse& u, std::uint8_t status,
                          const SwapSteps& s) {
  Verdict v;
  if (status != kStatusOk) {
    v.fail("swap completed with status %lld", status);
    return v;
  }
  for (int i = 0; i < 2; ++i) {
    if (!s.ran[i] || !s.ok[i]) {
      v.fail("swap get %lld did not run or found no key", i);
    } else if (u.index_of(s.value[i]) < 0) {
      v.fail("swap get %lld read %lld, not a seed value", i, s.value[i]);
    }
  }
  if (!s.ran[2] || !s.ran[3]) v.fail("swap puts did not run");
  return v;
}

/// The map rebuilt from the write-ahead log equals the live map at stop.
inline Verdict check_same_map(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& live,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& recovered) {
  Verdict v;
  if (live.size() != recovered.size()) {
    v.fail("recovered map holds %lld keys, live map %lld",
           static_cast<long long>(recovered.size()),
           static_cast<long long>(live.size()));
    return v;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i] != recovered[i]) {
      v.fail("recovered key %lld = %lld, live value %lld", recovered[i].first,
             recovered[i].second, live[i].second);
      break;
    }
  }
  return v;
}

}  // namespace sbench
