//! The tweet-stream generator.
//!
//! One pass per user, seeded independently per user id so the output is
//! bit-identical regardless of thread count:
//!
//! 1. **Home** — a world place sampled ∝ `population · bias`, where the
//!    bias is a frozen per-place log-normal (Twitter adoption varies by
//!    place — this is what spreads the Fig. 3 scatter around `y = x`).
//! 2. **Activity** — tweet count from a floor'd Pareto (Fig. 2a), an
//!    activity span covering a small fraction of the collection window,
//!    and heavy-tailed gaps rescaled to that span (Fig. 2b, Table I).
//! 3. **Movement** — a place-level random walk: each tweet moves with
//!    [`MOVE_PROBABILITY`], returning home or sampling the gravity kernel
//!    ([`crate::kernel::MobilityKernel`]).
//! 4. **Venues** — within a place, a user tweets from up to three frozen
//!    venues (home/work/leisure), sticky per sojourn, plus GPS jitter and
//!    occasional short "errands", so distinct locations per user stay
//!    near the paper's 4.76 without fabricating cross-area transitions.

use crate::config::{ConfigError, GeneratorConfig};
use crate::gazetteer::{world_places, Place};
use crate::kernel::MobilityKernel;
use crate::sampling::{
    sample_exponential, sample_mean_one_lognormal, sample_tweet_count, scatter_point,
    uniform_in_bbox,
};
use std::collections::BTreeMap;
use tweetmob_data::{Timestamp, TweetDataset, UserId};
use tweetmob_geo::{Point, AUSTRALIA_BBOX};
use tweetmob_stats::rng::SplitMix64;

// The calibration of the synthetic world. Together these reproduce the
// paper's Table I (13.3 tweets/user, 35.5 h mean wait, 4.76 locations
// per user) and the shapes of Figs. 2–4; each one moves one behavioural
// axis.

/// Power-law exponent of the tweets-per-user distribution (continuous
/// Pareto with an exponential cutoff at 350 tweets, floor'd to integers,
/// capped; see `sampling::sample_tweet_count`) — the tail of Fig. 2a.
/// 1.73 solves the paper's mean of 13.3 tweets/user together with its
/// 180-of-473,956 (0.038 %) share of users over 1,000 tweets; the law's
/// shares over 50 / 100 / 500 tweets are then 4.9 / 2.6 / 0.26 %
/// (paper: 4.95 / 2.12 / 0.16 %).
const ACTIVITY_ALPHA: f64 = 1.73;
/// Hard cap on tweets per user (the paper's max observed is ~10⁴).
const MAX_TWEETS_PER_USER: u32 = 20_000;
/// Mean fraction of the collection window a user's activity spans
/// (exponentially distributed, clipped to 0.95). 0.12 reproduces the
/// paper's 35.5 h mean waiting time (Table I) once the ~half of users
/// with a single tweet (who contribute no gaps) are accounted for.
const ACTIVITY_SPAN_FRACTION: f64 = 0.12;
/// Log-normal σ of the mean-one gap mixture: the burstiness of
/// inter-tweet gaps (Fig. 2b). 2.0 spans 4+ decades per user; pooled
/// across users the span exceeds 8 decades.
const WAITING_SIGMA: f64 = 2.0;
/// Probability that a tweet is preceded by a move to another place: how
/// often a consecutive tweet pair is a trip (Fig. 4 sample size).
const MOVE_PROBABILITY: f64 = 0.18;
/// Probability that a move from *away* returns home rather than
/// sampling a fresh destination.
const RETURN_PROBABILITY: f64 = 0.6;
/// Probability that a move uses the far (≥ 100 km, inter-city) kernel
/// regime rather than the local one. Keeps national-scale OD matrices
/// populated despite local moves dominating raw counts.
const FAR_MOVE_PROBABILITY: f64 = 0.25;
/// Ground-truth gravity exponent γ of the trip kernel: its distance
/// decay.
const GRAVITY_GAMMA: f64 = 2.0;
/// Ground-truth destination-population exponent of the trip kernel.
const GRAVITY_DEST_EXPONENT: f64 = 1.0;
/// Log-normal σ of the frozen per-(origin, destination) flow noise: the
/// irreducible per-pair noise that keeps model fits imperfect (Table II
/// < 1.0).
const PAIR_NOISE_SIGMA: f64 = 0.55;
/// Log-normal σ of the frozen per-place Twitter-adoption bias: the
/// scatter of Fig. 3 around `y = x`.
const BIAS_SIGMA: f64 = 0.45;
/// Fraction of tweets relocated uniformly inside the Australia bbox
/// (GPS glitches, travellers in transit) — fills in the Fig. 1 map.
const OUTBACK_NOISE: f64 = 0.004;

/// GPS jitter around a venue, km (mean of the exponential scatter).
const GPS_JITTER_KM: f64 = 0.02;
/// Probability a tweet is posted from a short "errand" away from the
/// sojourn venue (coffee run, shop) rather than the venue itself. Keeps
/// distinct locations/user near the paper's 4.76 without fabricating
/// cross-area transitions — the errand radius is well under any study
/// area's search radius.
const ERRAND_PROBABILITY: f64 = 0.2;
/// Mean distance of an errand from the venue, km.
const ERRAND_RADIUS_KM: f64 = 0.4;
/// Maximum frozen venues per (user, place).
const MAX_VENUES: usize = 3;
/// Buckets of the `synth/tweets_per_user` activity histogram — the
/// observable behind the paper's Fig. 2a heavy tail.
const TWEETS_PER_USER_BOUNDS: [u64; 9] = [1, 2, 5, 10, 20, 50, 100, 200, 500];
/// Venue selection CDF: 65 % primary, 25 % secondary, 10 % tertiary.
const VENUE_CDF: [f64; MAX_VENUES] = [0.65, 0.90, 1.0];

/// The synthetic tweet-stream generator.
///
/// ```
/// use tweetmob_synth::{GeneratorConfig, TweetGenerator};
///
/// let mut cfg = GeneratorConfig::small();
/// cfg.n_users = 200; // keep the doctest fast
/// let ds = TweetGenerator::new(cfg).generate();
/// assert_eq!(ds.n_users(), 200);
/// assert!(ds.n_tweets() >= 200);
/// ```
#[derive(Debug)]
pub struct TweetGenerator {
    config: GeneratorConfig,
    places: Vec<Place>,
    kernel: MobilityKernel,
    /// Cumulative home-assignment weights over places.
    home_cdf: Vec<f64>,
    /// Frozen per-place activity centroids: the official gazetteer
    /// centre displaced by a small, place-specific offset. Real suburbs'
    /// population centroids rarely coincide with their nominal centres;
    /// this offset is what makes tiny search radii (the paper's 0.5 km
    /// Fig. 3(b) variant) lose accuracy.
    activity_centers: Vec<Point>,
}

impl TweetGenerator {
    /// Builds a generator over the full Australian world gazetteer.
    ///
    /// # Panics
    ///
    /// When `config.n_users` is 0; use [`TweetGenerator::try_new`] to
    /// handle the error instead.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor; try_new is the fallible variant"
    )]
    pub fn new(config: GeneratorConfig) -> Self {
        Self::try_new(config).expect("invalid generator config")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when `config.n_users` is 0.
    pub fn try_new(config: GeneratorConfig) -> Result<Self, ConfigError> {
        if config.n_users == 0 {
            return Err(ConfigError("n_users must be > 0".into()));
        }
        Ok(Self::with_places(config, world_places()))
    }

    /// Builds a generator over a custom world (used by tests and the
    /// radius-sensitivity ablations).
    pub fn with_places(config: GeneratorConfig, places: Vec<Place>) -> Self {
        let kernel = MobilityKernel::build(
            &places,
            GRAVITY_GAMMA,
            GRAVITY_DEST_EXPONENT,
            PAIR_NOISE_SIGMA,
            FAR_MOVE_PROBABILITY,
            config.seed ^ 0xA5A5_5A5A,
        );
        let mut home_cdf = Vec::with_capacity(places.len());
        let mut acc = 0.0;
        for (i, p) in places.iter().enumerate() {
            acc += p.area.population as f64 * frozen_place_bias(config.seed, i, BIAS_SIGMA);
            home_cdf.push(acc);
        }
        let activity_centers: Vec<Point> = places
            .iter()
            .enumerate()
            .map(|(i, p)| frozen_activity_center(config.seed, i, p))
            .collect();
        Self {
            config,
            places,
            kernel,
            home_cdf,
            activity_centers,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The world places (index space shared with the kernel).
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// Generates the full dataset, parallelising across users on the
    /// shared [`tweetmob_par`] pool. Output is independent of thread
    /// count: every user stream is seeded by `(config.seed, user_id)`
    /// alone, and chunk outputs are concatenated in user-id order.
    ///
    /// The generator emits each user's stream in ascending user-id order
    /// with non-decreasing timestamps, so the output already satisfies
    /// the dataset's `(user, time)` sort invariant — the columns go
    /// straight into [`TweetDataset::from_sorted_columns`] with no
    /// row-struct materialisation and no re-sort. The result is
    /// identical to routing the same rows through
    /// [`TweetDataset::from_tweets`] (a stable sort of sorted input is
    /// the identity), which `tests::direct_to_columns_matches_row_path`
    /// holds bit-for-bit.
    pub fn generate(&self) -> TweetDataset {
        let _span = tweetmob_obs::span!("synth/generate");
        let n_users = self.config.n_users;
        let mut cols = tweetmob_par::par_map_reduce(
            "synth/generate",
            n_users as usize,
            64,
            |range| {
                let mut cols = UserColumns::default();
                for uid in range {
                    let before = cols.times.len();
                    self.user_stream(uid as u32, &mut cols);
                    let count = (cols.times.len() - before) as u32;
                    if count > 0 {
                        cols.unique_users.push(UserId(uid as u32));
                        cols.counts.push(count);
                    }
                }
                cols
            },
            |mut acc: UserColumns, chunk| {
                acc.extend(chunk);
                acc
            },
        );
        let mut user_starts = Vec::with_capacity(cols.counts.len() + 1);
        let mut offset = 0u32;
        user_starts.push(0);
        for &c in &cols.counts {
            offset += c;
            user_starts.push(offset);
        }
        #[expect(
            clippy::expect_used,
            reason = "the generator upholds the sort invariant by construction"
        )]
        let ds = TweetDataset::from_sorted_columns(
            std::mem::take(&mut cols.unique_users),
            user_starts,
            cols.times,
            cols.lats,
            cols.lons,
        )
        .expect("generator output satisfies the columnar sort invariant");
        tweetmob_obs::counter!("synth/users").add(u64::from(n_users));
        tweetmob_obs::counter!("synth/tweets_generated").add(ds.n_tweets() as u64);
        let per_user: Vec<u64> = ds.tweets_per_user().iter().map(|&c| u64::from(c)).collect();
        tweetmob_obs::global()
            .histogram("synth/tweets_per_user", &TWEETS_PER_USER_BOUNDS)
            .record_all(&per_user);
        ds
    }

    /// Generates one user's tweets into the column buffers.
    fn user_stream(&self, uid: u32, out: &mut UserColumns) {
        let mut rng = SplitMix64::new(user_seed(self.config.seed, uid));
        let home = self.sample_home(&mut rng);
        let k = sample_tweet_count(&mut rng, ACTIVITY_ALPHA, MAX_TWEETS_PER_USER);
        let times = self.sample_times(&mut rng, k);

        // BTreeMap (not HashMap): venue state must never depend on hash
        // iteration order — tests/determinism.rs holds the whole stream
        // bit-identical across runs and thread counts.
        let mut venues: BTreeMap<usize, Vec<Point>> = BTreeMap::new();
        let mut current = home;
        // Venues are sticky per sojourn: a user tweets from one venue
        // until they move places. Re-picking per tweet would fabricate
        // venue-to-venue transitions inside large places, which at the
        // metropolitan scale read as random suburb-to-suburb trips and
        // drown the genuine (gravity-law) mobility signal.
        let mut venue = self.pick_venue(&mut rng, &mut venues, current);
        for (i, &time) in times.iter().enumerate() {
            if i > 0 && rng.next_f64() < MOVE_PROBABILITY {
                let next = self.next_place(&mut rng, current, home);
                if next != current {
                    current = next;
                    venue = self.pick_venue(&mut rng, &mut venues, current);
                }
            }
            let location = if rng.next_f64() < OUTBACK_NOISE {
                uniform_in_bbox(&mut rng, &AUSTRALIA_BBOX)
            } else if rng.next_f64() < ERRAND_PROBABILITY {
                scatter_point(&mut rng, venue, ERRAND_RADIUS_KM)
            } else {
                scatter_point(&mut rng, venue, GPS_JITTER_KM)
            };
            out.times.push(time);
            out.lats.push(location.lat);
            out.lons.push(location.lon);
        }
    }

    /// Samples a home place index from the biased population CDF.
    fn sample_home(&self, rng: &mut SplitMix64) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "gazetteers are validated non-empty before use"
        )]
        let total = *self.home_cdf.last().expect("world has places");
        let target = rng.next_f64() * total;
        self.home_cdf
            .partition_point(|&c| c <= target)
            .min(self.places.len() - 1)
    }

    /// Movement step: return home, or sample the kernel.
    fn next_place(&self, rng: &mut SplitMix64, current: usize, home: usize) -> usize {
        if current != home && rng.next_f64() < RETURN_PROBABILITY {
            return home;
        }
        self.kernel
            .sample_destination(rng, current)
            .unwrap_or(current)
    }

    /// Picks (lazily creating) one of the user's frozen venues in `place`.
    fn pick_venue(
        &self,
        rng: &mut SplitMix64,
        venues: &mut BTreeMap<usize, Vec<Point>>,
        place: usize,
    ) -> Point {
        let p = &self.places[place];
        let list = venues.entry(place).or_default();
        let u = rng.next_f64();
        let want = VENUE_CDF.iter().position(|&c| u < c).unwrap_or(0);
        while list.len() <= want {
            list.push(scatter_point(
                rng,
                self.activity_centers[place],
                p.radius_km,
            ));
        }
        list[want]
    }

    /// Tweet timestamps for a user: an activity span covering an
    /// exponential fraction of the window, heavy-tailed gaps rescaled to
    /// fill it exactly.
    fn sample_times(&self, rng: &mut SplitMix64, k: u32) -> Vec<Timestamp> {
        let window_start = Timestamp::COLLECTION_START;
        let window = (Timestamp::COLLECTION_END.seconds_since(window_start)) as f64;
        if k == 1 {
            let at = rng.range_f64(0.0, window);
            return vec![window_start.plus_secs(at as i64)];
        }
        let span_frac = sample_exponential(rng, ACTIVITY_SPAN_FRACTION).min(0.95);
        let span = (window * span_frac).max((k as f64) * 1.0); // ≥ 1 s per gap
        let raw: Vec<f64> = (0..k - 1)
            .map(|_| sample_mean_one_lognormal(rng, WAITING_SIGMA).max(1e-9))
            .collect();
        let sum: f64 = raw.iter().sum();
        let scale = span / sum;
        let start = rng.range_f64(0.0, (window - span.min(window * 0.999)).max(1.0));
        let mut t = start;
        let mut times = Vec::with_capacity(k as usize);
        times.push(window_start.plus_secs(t as i64));
        for g in raw {
            t += g * scale;
            times.push(window_start.plus_secs(t.min(window) as i64));
        }
        times
    }
}

/// Struct-of-arrays accumulator for generated tweets: parallel value
/// columns plus the per-user run lengths, concatenated across chunks in
/// user-id order so the merged buffers already satisfy the dataset's
/// `(user, time)` sort invariant.
#[derive(Debug, Default)]
struct UserColumns {
    unique_users: Vec<UserId>,
    counts: Vec<u32>,
    times: Vec<Timestamp>,
    lats: Vec<f64>,
    lons: Vec<f64>,
}

impl UserColumns {
    /// Appends `chunk` after `self` (chunks arrive in user-id order).
    fn extend(&mut self, chunk: UserColumns) {
        self.unique_users.extend(chunk.unique_users);
        self.counts.extend(chunk.counts);
        self.times.extend(chunk.times);
        self.lats.extend(chunk.lats);
        self.lons.extend(chunk.lons);
    }
}

/// Per-user seed derivation: the seed is hashed before the user id is
/// mixed in, so consecutive user ids get decorrelated streams and two
/// master seeds share no user stream. (XOR-ing the raw seed with the id
/// would only permute users between seeds that differ above bit 0.)
fn user_seed(seed: u64, uid: u32) -> u64 {
    let base = SplitMix64::new(seed).next_u64();
    SplitMix64::new(base ^ uid as u64).next_u64()
}

/// Frozen per-place activity centroid: the nominal centre displaced by a
/// deterministic offset of ~0.35× the settlement radius in a hashed
/// direction.
fn frozen_activity_center(seed: u64, place: usize, p: &Place) -> Point {
    let mut h = SplitMix64::new(seed.rotate_left(17) ^ (0xC0FFEE + place as u64));
    let bearing = h.next_f64() * 360.0;
    let dist = 0.35 * p.radius_km * (0.5 + h.next_f64());
    tweetmob_geo::destination(p.area.center, bearing, dist)
}

/// Frozen per-place adoption bias: mean-one log-normal keyed by
/// `(seed, place)`.
fn frozen_place_bias(seed: u64, place: usize, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let mut h = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(place as u64));
    let u1 = h.next_f64().max(1e-300);
    let u2 = h.next_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (-sigma * sigma / 2.0 + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_data::{DatasetSummary, Tweet};
    use tweetmob_geo::haversine_km;

    fn small_dataset() -> TweetDataset {
        TweetGenerator::new(GeneratorConfig::small()).generate()
    }

    #[test]
    fn generates_requested_user_count() {
        let ds = small_dataset();
        assert_eq!(ds.n_users(), 2_000);
        assert!(ds.n_tweets() >= 2_000);
    }

    #[test]
    fn direct_to_columns_matches_row_path() {
        // The zero-sort columnar construction must be indistinguishable
        // from materialising rows and routing them through from_tweets —
        // a stable sort of already-sorted input is the identity.
        let g = TweetGenerator::new(GeneratorConfig::small());
        let columnar = g.generate();
        let mut cols = UserColumns::default();
        let mut rows = Vec::new();
        for uid in 0..g.config().n_users {
            let before = cols.times.len();
            g.user_stream(uid, &mut cols);
            for k in before..cols.times.len() {
                rows.push(Tweet::new(
                    UserId(uid),
                    cols.times[k],
                    Point::new_unchecked(cols.lats[k], cols.lons[k]),
                ));
            }
        }
        let row_path = TweetDataset::from_tweets(rows);
        assert_eq!(columnar, row_path);
    }

    #[test]
    fn generation_is_thread_invariant() {
        let g = TweetGenerator::new(GeneratorConfig::small());
        let one = tweetmob_par::with_threads(1, || g.generate());
        let eight = tweetmob_par::with_threads(8, || g.generate());
        assert_eq!(one, eight);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small_dataset();
        let b = small_dataset();
        assert_eq!(a.n_tweets(), b.n_tweets());
        assert!(a.iter_tweets().zip(b.iter_tweets()).all(|(x, y)| x == y));
    }

    #[test]
    fn different_seeds_differ() {
        let seeded = |seed| GeneratorConfig {
            seed,
            ..GeneratorConfig::small()
        };
        let a = TweetGenerator::new(seeded(1)).generate();
        let b = TweetGenerator::new(seeded(2)).generate();
        assert_ne!(a.n_tweets(), b.n_tweets());
    }

    #[test]
    fn all_tweets_inside_australia_and_window() {
        let ds = small_dataset();
        for t in ds.iter_tweets() {
            assert!(
                AUSTRALIA_BBOX.contains(t.location),
                "tweet at {}",
                t.location
            );
            assert!(
                t.time
                    .within(Timestamp::COLLECTION_START, Timestamp::COLLECTION_END),
                "tweet at {}",
                t.time
            );
        }
    }

    #[test]
    fn table_one_calibration_bands() {
        // The paper's Table I: 13.3 tweets/user, 35.5 h waiting, 4.76
        // locations/user. Bands are generous — shape, not digits.
        let ds = TweetGenerator::new(GeneratorConfig::default()).generate();
        let s = DatasetSummary::of(&ds);
        assert!(
            (8.0..20.0).contains(&s.avg_tweets_per_user),
            "tweets/user {}",
            s.avg_tweets_per_user
        );
        assert!(
            (15.0..70.0).contains(&s.avg_waiting_time_hours),
            "waiting {} h",
            s.avg_waiting_time_hours
        );
        assert!(
            (2.0..9.0).contains(&s.avg_locations_per_user),
            "locations/user {}",
            s.avg_locations_per_user
        );
        // Heavy-tail sanity: some enthusiasts exist.
        assert!(s.activity.over_100 > 0);
    }

    #[test]
    fn user_timestamps_are_nondecreasing() {
        let ds = small_dataset();
        for view in ds.iter_users() {
            for w in view.times.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn population_concentrates_in_big_cities() {
        let ds = TweetGenerator::new(GeneratorConfig::default()).generate();
        let sydney = Point::new_unchecked(-33.8688, 151.2093);
        let alice = Point::new_unchecked(-23.6980, 133.8807);
        let near = |c: Point, r: f64| ds.iter_points().filter(|&p| haversine_km(c, p) < r).count();
        let sydney_tweets = near(sydney, 50.0);
        let alice_tweets = near(alice, 50.0);
        assert!(
            sydney_tweets > 50 * alice_tweets.max(1),
            "sydney {sydney_tweets} vs alice springs {alice_tweets}"
        );
    }

    #[test]
    fn movement_produces_intercity_transitions() {
        let ds = TweetGenerator::new(GeneratorConfig::default()).generate();
        // Count consecutive same-user pairs > 300 km apart.
        let mut far_pairs = 0usize;
        for view in ds.iter_users() {
            for k in 1..view.len() {
                if haversine_km(view.point(k - 1), view.point(k)) > 300.0 {
                    far_pairs += 1;
                }
            }
        }
        assert!(far_pairs > 100, "only {far_pairs} long-range transitions");
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let bad = GeneratorConfig {
            n_users: 0,
            ..GeneratorConfig::small()
        };
        assert!(TweetGenerator::try_new(bad).is_err());
    }

    /// The frozen per-place adoption biases a generator's home CDF uses.
    fn biases(g: &TweetGenerator) -> Vec<f64> {
        (0..g.places.len())
            .map(|i| frozen_place_bias(g.config.seed, i, BIAS_SIGMA))
            .collect()
    }

    #[test]
    fn biases_are_frozen_and_positive() {
        let g1 = TweetGenerator::new(GeneratorConfig::small());
        let g2 = TweetGenerator::new(GeneratorConfig::small());
        assert_eq!(biases(&g1), biases(&g2));
        assert!(biases(&g1).iter().all(|&b| b > 0.0));
        let g3 = TweetGenerator::new(GeneratorConfig {
            seed: 9,
            ..GeneratorConfig::small()
        });
        assert_ne!(biases(&g1), biases(&g3));
    }

    #[test]
    fn zero_bias_sigma_means_unit_bias() {
        let seed = GeneratorConfig::small().seed;
        assert!((0..world_places().len()).all(|i| frozen_place_bias(seed, i, 0.0) == 1.0));
    }

    #[test]
    fn single_user_world_stays_put() {
        let places = world_places();
        let one = vec![places[0]];
        let cfg = GeneratorConfig {
            n_users: 5,
            ..GeneratorConfig::small()
        };
        let g = TweetGenerator::with_places(cfg, one.clone());
        let ds = g.generate();
        // Every tweet scatters around the single place.
        for p in ds.iter_points() {
            let d = haversine_km(one[0].area.center, p);
            assert!(
                d < one[0].radius_km * 4.0 + GPS_JITTER_KM * 4.0 + 1e-6,
                "d = {d}"
            );
        }
    }
}
