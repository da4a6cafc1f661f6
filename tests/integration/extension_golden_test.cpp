// Golden pins for the §6 extension simulators: the exact outputs of
// seeded multidim and flexible-start runs. The differential suites only
// compare the indexed engine against the linear one, so a change that
// moves both engines together would pass them; these pins catch it. Every
// float is pinned by its bit pattern and every assignment vector by an
// FNV-1a digest, so a pass means bit-identical results.
//
// Regenerate (only after deciding a behavior change is intended): empty a
// table and run the test; each failure prints the row to paste back.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "flexible/flexible_workload.hpp"
#include "flexible/online_flexible.hpp"
#include "multidim/md_policies.hpp"
#include "multidim/md_workload.hpp"

namespace cdbp {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::uint64_t digestBins(const std::vector<BinId>& binOf) {
  std::vector<std::uint64_t> words;
  for (BinId b : binOf) words.push_back(static_cast<std::uint64_t>(b));
  return fnv1a(words);
}

std::uint64_t digestTimes(const std::vector<Time>& times) {
  std::vector<std::uint64_t> words;
  for (Time t : times) words.push_back(std::bit_cast<std::uint64_t>(t));
  return fnv1a(words);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* engineName(PlacementEngine engine) {
  return engine == PlacementEngine::kIndexed ? "indexed" : "linear";
}

struct MdPin {
  std::size_t dims;
  MdFitRule fit;
  MdCategoryRule categories;
  std::uint64_t binOfDigest;
  std::uint64_t usageBits;
  std::size_t binsOpened;
  std::size_t maxOpenBins;
};

MdInstance mdGoldenInstance(std::size_t dims) {
  MdWorkloadSpec spec;
  spec.numItems = 400;
  spec.dims = dims;
  spec.arrivalRate = 6.0;
  spec.mu = 12.0;
  return generateMdWorkload(spec, 20160711 + dims);
}

TEST(ExtensionGolden, MultidimPackingsArePinned) {
  const std::vector<MdPin> pins = {
      {2, MdFitRule::kFirstFit, MdCategoryRule::kNone,
       0x58d1e5232a781306ull, 0x4098c22fc026edf8ull, 115, 28},
      {2, MdFitRule::kFirstFit, MdCategoryRule::kDeparture,
       0x947b24a474402197ull, 0x4099dfa4e60f72f2ull, 234, 30},
      {2, MdFitRule::kFirstFit, MdCategoryRule::kDuration,
       0x4fa3ad9403220318ull, 0x4099a64012a833e0ull, 153, 30},
      {2, MdFitRule::kDominantFit, MdCategoryRule::kNone,
       0xe1e9c47b7b8ea42eull, 0x4099cd765143058full, 118, 31},
      {2, MdFitRule::kDominantFit, MdCategoryRule::kDeparture,
       0x03355721dddd19ccull, 0x409a2cf7a5a5bbccull, 236, 31},
      {2, MdFitRule::kDominantFit, MdCategoryRule::kDuration,
       0xe809f3c7bf16f032ull, 0x409a871e946651dcull, 160, 30},
      {3, MdFitRule::kFirstFit, MdCategoryRule::kNone,
       0xf9db88090c222454ull, 0x409955a99daa939dull, 124, 31},
      {3, MdFitRule::kFirstFit, MdCategoryRule::kDeparture,
       0x4f15687772c38225ull, 0x409a00d60404e353ull, 234, 33},
      {3, MdFitRule::kFirstFit, MdCategoryRule::kDuration,
       0x0ad6713b50d27818ull, 0x409ae5ba5b399ef1ull, 168, 34},
      {3, MdFitRule::kDominantFit, MdCategoryRule::kNone,
       0xa904c0cbfb2b59b9ull, 0x4099ecb4f60bcbc2ull, 127, 31},
      {3, MdFitRule::kDominantFit, MdCategoryRule::kDeparture,
       0xc680fe3c3778987dull, 0x409a4d3dce8547f1ull, 242, 34},
      {3, MdFitRule::kDominantFit, MdCategoryRule::kDuration,
       0x5ff211b08c5f1f48ull, 0x409b41bf032d4e6full, 172, 34},
  };
  const MdFitRule fits[] = {MdFitRule::kFirstFit, MdFitRule::kDominantFit};
  const MdCategoryRule rules[] = {MdCategoryRule::kNone,
                                  MdCategoryRule::kDeparture,
                                  MdCategoryRule::kDuration};
  std::size_t checked = 0;
  for (std::size_t dims : {2u, 3u}) {
    MdInstance inst = mdGoldenInstance(dims);
    for (MdFitRule fit : fits) {
      for (MdCategoryRule rule : rules) {
        const MdPin* pin = nullptr;
        for (const MdPin& p : pins) {
          if (p.dims == dims && p.fit == fit && p.categories == rule) pin = &p;
        }
        for (PlacementEngine engine :
             {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
          MdClassifyPolicy policy({fit, rule, /*rho=*/2.0, /*base=*/1.0,
                                   /*alpha=*/2.0});
          MdSimResult r = mdSimulateOnline(inst, policy, {engine});
          const std::uint64_t digest = digestBins(r.packing.binOf());
          const std::uint64_t usage =
              std::bit_cast<std::uint64_t>(r.totalUsage);
          if (pin == nullptr) {
            ADD_FAILURE() << "unpinned; row: {" << dims << ", MdFitRule::"
                          << (fit == MdFitRule::kFirstFit ? "kFirstFit"
                                                          : "kDominantFit")
                          << ", MdCategoryRule::"
                          << (rule == MdCategoryRule::kNone
                                  ? "kNone"
                                  : rule == MdCategoryRule::kDeparture
                                        ? "kDeparture"
                                        : "kDuration")
                          << ", " << hex(digest) << "ull, " << hex(usage)
                          << "ull, " << r.binsOpened << ", " << r.maxOpenBins
                          << "},";
            break;
          }
          SCOPED_TRACE(policy.name() + " dims=" + std::to_string(dims) + " " +
                       engineName(engine));
          EXPECT_EQ(hex(digest), hex(pin->binOfDigest));
          EXPECT_EQ(hex(usage), hex(pin->usageBits));
          EXPECT_EQ(r.binsOpened, pin->binsOpened);
          EXPECT_EQ(r.maxOpenBins, pin->maxOpenBins);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 6u * 2u);
}

struct FlexPin {
  const char* policy;
  std::uint64_t startsDigest;
  std::uint64_t binOfDigest;
  std::uint64_t usageBits;
  std::size_t forcedStarts;
};

TEST(ExtensionGolden, FlexibleSchedulesArePinned) {
  const std::vector<FlexPin> pins = {
      {"Flex-ASAP-FF", 0x88fe738f0493d97dull,
       0x612b214c48f77f3aull, 0x408a482967e7fb14ull, 0},
      {"Flex-DeferAlign", 0x9c3a186cc83084c0ull,
       0xd8bb452f041ff9d0ull, 0x4086bcd901a71cd7ull, 151},
  };
  FlexibleWorkloadSpec spec;
  spec.numJobs = 400;
  spec.arrivalRate = 6.0;
  spec.slackFactor = 1.5;
  FlexibleInstance inst = generateFlexibleWorkload(spec, 20160711);
  FlexStartAsapFF asap;
  FlexDeferAlign align;
  std::size_t checked = 0;
  for (FlexOnlinePolicy* policy :
       std::vector<FlexOnlinePolicy*>{&asap, &align}) {
    const FlexPin* pin = nullptr;
    for (const FlexPin& p : pins) {
      if (policy->name() == p.policy) pin = &p;
    }
    for (PlacementEngine engine :
         {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
      FlexOnlineResult r = simulateFlexibleOnline(inst, *policy, {engine});
      const std::uint64_t starts = digestTimes(r.starts);
      const std::uint64_t bins = digestBins(r.packing.binOf());
      const std::uint64_t usage = std::bit_cast<std::uint64_t>(r.totalUsage);
      if (pin == nullptr) {
        ADD_FAILURE() << "unpinned; row: {\"" << policy->name() << "\", "
                      << hex(starts) << "ull, " << hex(bins) << "ull, "
                      << hex(usage) << "ull, " << r.forcedStarts << "},";
        break;
      }
      SCOPED_TRACE(policy->name() + " " + engineName(engine));
      EXPECT_EQ(hex(starts), hex(pin->startsDigest));
      EXPECT_EQ(hex(bins), hex(pin->binOfDigest));
      EXPECT_EQ(hex(usage), hex(pin->usageBits));
      EXPECT_EQ(r.forcedStarts, pin->forcedStarts);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2u * 2u);
}

}  // namespace
}  // namespace cdbp
