/**
 * @file
 * Global allocation counter for the test_alloc_count binary.
 *
 * alloc_counter.cc replaces the global operator new/delete with
 * versions that count every allocation; tests read the count before
 * and after a steady-state loop and assert it did not move.
 */

#ifndef CCHUNTER_TESTS_ALLOC_COUNTER_HH
#define CCHUNTER_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

/** Global operator new / new[] calls so far in this process. */
std::uint64_t allocationCount();

#endif // CCHUNTER_TESTS_ALLOC_COUNTER_HH
