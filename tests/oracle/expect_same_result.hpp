// GoogleTest front end of oracle::result_differences: one failure per
// differing SimResult field, tagged with the caller's label.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "oracle/reference_allreduce.hpp"

namespace pfar::oracle {

inline void expect_same_result(const simnet::SimResult& a,
                               const simnet::SimResult& b,
                               const std::string& label) {
  for (const std::string& diff : result_differences(a, b)) {
    ADD_FAILURE() << label << ": " << diff;
  }
}

}  // namespace pfar::oracle
