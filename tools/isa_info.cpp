// Prints the SIMD ISA the kernel registry dispatches to on this host, plus
// the detected best and the full supported list with --verbose. Honors
// ADAQP_ISA (and exits non-zero with its strict-parse message on a bad
// value), so `ADAQP_ISA=... ./isa_info` answers "what would the library
// actually run?".
#include <cstring>
#include <exception>
#include <iostream>

#include "simd/isa.h"

int main(int argc, char** argv) {
  using adaqp::simd::Isa;
  try {
    if (argc > 1 && std::strcmp(argv[1], "--verbose") == 0) {
      std::cout << "active:    " << isa_name(adaqp::simd::active_isa()) << "\n"
                << "detected:  " << isa_name(adaqp::simd::detected_isa())
                << "\n"
                << "supported:";
      for (Isa isa : adaqp::simd::supported_isas())
        std::cout << " " << isa_name(isa);
      std::cout << "\n";
    } else {
      std::cout << isa_name(adaqp::simd::active_isa()) << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
