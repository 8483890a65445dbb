#pragma once

// The standard accelerator-module database (paper IV-C): every PR bitstream
// DHL ships, keyed by hardware-function name.  NF developers can add their
// own bitstreams on top (BitstreamDatabase::add), as the paper allows.

#include <memory>

#include "dhl/fpga/bitstream.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/match/regex.hpp"

namespace dhl::accel {

/// Build the standard database: ipsec-crypto, loopback, md5-auth,
/// compression, aes256-ctr, pattern-matching (compiled over
/// `nids_automaton`, when one is supplied) and regex-classifier (when a DFA
/// bank is supplied).
fpga::BitstreamDatabase standard_module_database(
    std::shared_ptr<const match::AhoCorasick> nids_automaton,
    std::shared_ptr<const match::RegexClassifier> regex_bank = nullptr);

}  // namespace dhl::accel
