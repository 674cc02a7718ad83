// Self-test of the benchmark's result checks: each checker must accept a
// correct history and reject a deliberately wrong one.  A checker that
// cannot fail proves nothing, so run.py runs this before every workload
// and refuses to report figures if it fails.
//
//   selftest            exit 0 when every expectation holds
#include <cstdio>
#include <utility>
#include <vector>

#include "checks.h"

namespace {

using sbench::encode_value;
using sbench::KeyState;
using sbench::OpKind;
using sbench::OpRecord;
using sbench::seed_value;
using sbench::Verdict;

int g_failed = 0;

void expect(const char* name, const Verdict& v, bool want_ok) {
  const bool pass = v.ok == want_ok;
  if (!pass) g_failed += 1;
  std::printf("%-40s %s\n", name, pass ? "pass" : "FAIL");
  if (!v.ok) std::printf("    checker: %s\n", v.first_error.c_str());
}

OpRecord op(OpKind kind, std::int64_t key, std::int64_t value,
            std::uint64_t t_send, std::uint64_t t_done, bool ok = true) {
  OpRecord r;
  r.kind = kind;
  r.key = key;
  r.value = value;
  r.t_send = t_send;
  r.t_done = t_done;
  r.status = sbench::kStatusOk;
  r.ok = ok;
  return r;
}

/// Two keys: key 0 seeded, key 1 absent.
KeyState two_key_seed() { return KeyState{seed_value(0), std::nullopt}; }

void kv_checks() {
  const KeyState seed = two_key_seed();
  const std::int64_t v1 = encode_value(0, 1, 0);
  const std::int64_t v2 = encode_value(0, 2, 0);
  const std::int64_t w1 = encode_value(1, 1, 1);
  // Correct: put v1, then (strictly later) put v2; a get saw v1; key 1 got
  // a put and then an erase that overlapped it.
  const std::vector<OpRecord> good = {
      op(OpKind::kPut, 0, v1, 10, 20),
      op(OpKind::kGet, 0, v1, 21, 25),
      op(OpKind::kPut, 0, v2, 30, 40),
      op(OpKind::kPut, 1, w1, 10, 50),
      op(OpKind::kErase, 1, 0, 45, 55),
  };
  expect("kv: correct history accepted",
         sbench::check_kv_history(seed, good, KeyState{v2, std::nullopt}),
         true);
  // Overlapping writes may land in either order.
  expect("kv: overlapping writes, either order",
         sbench::check_kv_history(seed, good, KeyState{v2, w1}), true);

  // Lost write: v2 was sent after v1 was acknowledged, yet the map ends
  // holding v1.
  expect("kv: lost write rejected",
         sbench::check_kv_history(seed, good, KeyState{v1, std::nullopt}),
         false);

  // A value under the wrong key: a get of key 1 returns key 0's value.
  std::vector<OpRecord> wrong_key = good;
  wrong_key.push_back(op(OpKind::kGet, 1, v1, 22, 26));
  expect("kv: value under wrong key rejected",
         sbench::check_kv_history(seed, wrong_key, KeyState{v2, std::nullopt}),
         false);

  // A value no put wrote (right key, unknown writer sequence).
  std::vector<OpRecord> phantom = good;
  phantom.push_back(op(OpKind::kGet, 0, encode_value(0, 3, 7), 22, 26));
  expect("kv: phantom value rejected",
         sbench::check_kv_history(seed, phantom, KeyState{v2, std::nullopt}),
         false);

  // A read from the future: the get finished before the put was sent.
  std::vector<OpRecord> early = good;
  early.push_back(op(OpKind::kGet, 0, v2, 1, 5));
  expect("kv: read before its write rejected",
         sbench::check_kv_history(seed, early, KeyState{v2, std::nullopt}),
         false);

  // A key nobody wrote changed.
  expect("kv: unwritten key changed rejected",
         sbench::check_kv_history(seed, {}, KeyState{std::nullopt,
                                                     std::nullopt}),
         false);
}

std::vector<std::pair<std::int64_t, std::int64_t>> view(
    std::initializer_list<std::int64_t> values) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  std::int64_t k = 0;
  for (std::int64_t v : values) out.emplace_back(k++, v);
  return out;
}

void swap_checks() {
  const sbench::SwapUniverse u{4, 100, 10};  // seed values 100, 110, 120, 130
  expect("swap: permutation accepted",
         sbench::check_permutation(u, view({120, 100, 130, 110}), "scan"),
         true);
  // Torn scan: one swap's first put seen, its second not (a value twice).
  expect("swap: torn scan rejected",
         sbench::check_permutation(u, view({120, 120, 130, 110}), "scan"),
         false);
  expect("swap: short scan rejected",
         sbench::check_permutation(u, view({120, 100, 130}), "scan"), false);
  // Non-permutation: a value that was never seeded.
  expect("swap: non-permutation rejected",
         sbench::check_permutation(u, view({120, 100, 131, 110}), "map"),
         false);

  sbench::SwapSteps good;
  for (int i = 0; i < 4; ++i) good.ran[i] = true;
  good.ok[0] = good.ok[1] = true;
  good.value[0] = 110;
  good.value[1] = 120;
  expect("swap: script accepted", sbench::check_swap(u, sbench::kStatusOk, good),
         true);
  sbench::SwapSteps missed = good;
  missed.ok[1] = false;
  expect("swap: failed get rejected",
         sbench::check_swap(u, sbench::kStatusOk, missed), false);

  expect("swap: recovered map equal accepted",
         sbench::check_same_map(view({120, 100, 130, 110}),
                                view({120, 100, 130, 110})),
         true);
  expect("swap: recovered map differs rejected",
         sbench::check_same_map(view({120, 100, 130, 110}),
                                view({100, 120, 130, 110})),
         false);
}

}  // namespace

int main() {
  kv_checks();
  swap_checks();
  if (g_failed != 0) {
    std::printf("selftest: %d expectation(s) failed\n", g_failed);
    return 1;
  }
  std::printf("selftest: all checks behave\n");
  return 0;
}
