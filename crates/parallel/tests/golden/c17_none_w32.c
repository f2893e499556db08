/* parallel-technique unit-delay simulation of `c17` (unoptimized) */
#include <stdint.h>
typedef uint32_t word;
static word s1 = 0;
static word s2 = 0;
static word s3 = 0;
static word s6 = 0;
static word s7 = 0;
static word s22 = 0;
static word s23 = 0;
static word s10 = ~(word)0;
static word s11 = ~(word)0;
static word s16 = ~(word)0;
static word s19 = ~(word)0;
static word t11 = 0;

void simulate_one_vector(const word *pi)
{
    s1 = (word)0 - pi[0];
    s2 = (word)0 - pi[1];
    s3 = (word)0 - pi[2];
    s6 = (word)0 - pi[3];
    s7 = (word)0 - pi[4];
    s22 = s22 >> 3 & 1;
    s23 = s23 >> 3 & 1;
    s10 = s10 >> 3 & 1;
    s11 = s11 >> 3 & 1;
    s16 = s16 >> 3 & 1;
    s19 = s19 >> 3 & 1;
    t11 = ~(s1 & s3);
    s10 |= t11 << 1;
    t11 = ~(s3 & s6);
    s11 |= t11 << 1;
    t11 = ~(s11 & s7);
    s19 |= t11 << 1;
    t11 = ~(s2 & s11);
    s16 |= t11 << 1;
    t11 = ~(s16 & s19);
    s23 |= t11 << 1;
    t11 = ~(s10 & s16);
    s22 |= t11 << 1;
}
