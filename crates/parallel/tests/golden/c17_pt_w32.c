/* parallel-technique unit-delay simulation of `c17` (path-tracing) */
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
static word t12 = 0;
static word t13 = 0;

void simulate_one_vector(const word *pi)
{
    s1 = (word)0 - pi[0];
    s2 = (word)0 - pi[1];
    { /* input 2: 1 previous-value bit(s) */
        const word uds_p = (word)0 - (s3 >> 1 & (word)1);
        const word uds_n = (word)0 - pi[2];
        s3 = (uds_p & (word)0x1) | (uds_n & ~(word)0x1);
    }
    { /* input 3: 1 previous-value bit(s) */
        const word uds_p = (word)0 - (s6 >> 1 & (word)1);
        const word uds_n = (word)0 - pi[3];
        s6 = (uds_p & (word)0x1) | (uds_n & ~(word)0x1);
    }
    s7 = (word)0 - pi[4];
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s3 & (word)1);
        const word uds_tf = (word)0 - (s3 >> 1 & (word)1);
        const word uds_st = (s3 & (word)0x3) | (uds_tf & ~(word)0x3);
        t11 = (uds_st >> 1) | (uds_tf << 31);
    }
    s10 = ~(s1 & t11);
    s11 = ~(s3 & s6);
    s19 = ~(s11 & s7);
    s16 = ~(s2 & s11);
    s23 = ~(s16 & s19);
    s22 = ~(s10 & s16);
}
