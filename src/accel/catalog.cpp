#include "dhl/accel/catalog.hpp"

#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/ipsec_crypto.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/accel/regex_classifier.hpp"
#include "dhl/fpga/loopback.hpp"

namespace dhl::accel {

fpga::BitstreamDatabase standard_module_database(
    std::shared_ptr<const match::AhoCorasick> nids_automaton,
    std::shared_ptr<const match::RegexClassifier> regex_bank) {
  fpga::BitstreamDatabase db;
  db.add(ipsec_crypto_bitstream());
  if (nids_automaton != nullptr) {
    db.add(pattern_matching_bitstream(std::move(nids_automaton)));
  }
  if (regex_bank != nullptr) {
    db.add(regex_classifier_bitstream(std::move(regex_bank)));
  }
  db.add(fpga::loopback_bitstream());
  db.add(md5_bitstream());
  db.add(compression_bitstream());
  db.add(aes256_ctr_bitstream());
  return db;
}

}  // namespace dhl::accel
