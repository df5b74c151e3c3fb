//! Embedded gazetteer of Australian places.
//!
//! The paper's three study scales are the 20 most populated Australian
//! cities (national), the 20 most populated NSW cities (state), and the 20
//! most populated Sydney suburbs (metropolitan), with census populations
//! from ABS 3218.0 (2012-13). Coordinates below are the standard published
//! city/suburb centres; populations are approximations of the 2012-13
//! figures (DESIGN.md §2 records this substitution — only relative
//! magnitudes matter for every experiment).
//!
//! For the synthetic *world* (the places users live in and travel
//! between), Sydney is decomposed into its 20 suburbs — carrying the
//! whole Sydney census population, scaled proportionally — so that
//! metropolitan-scale structure exists, and ~35 regional background
//! towns are added so that the continent's coastal, discontinuous
//! population layout — the geographic feature the paper blames for
//! Radiation's misfit — is present in the generated data.

use tweetmob_geo::Point;

/// A named place with a census population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    /// Place name (unique across the gazetteer).
    pub name: &'static str,
    /// Geographic centre.
    pub center: Point,
    /// Census population (approximate 2012-13 figure).
    pub population: u64,
}

const fn area(name: &'static str, lat: f64, lon: f64, population: u64) -> Area {
    Area {
        name,
        center: Point::new_unchecked(lat, lon),
        population,
    }
}

/// The 20 most populated Australian cities (significant urban areas) —
/// the paper's **national** scale. Search radius: 50 km.
pub const NATIONAL_TOP20: [Area; 20] = [
    area("Sydney", -33.8688, 151.2093, 4_757_000),
    area("Melbourne", -37.8136, 144.9631, 4_246_000),
    area("Brisbane", -27.4698, 153.0251, 2_190_000),
    area("Perth", -31.9523, 115.8613, 1_898_000),
    area("Adelaide", -34.9285, 138.6007, 1_277_000),
    area("Gold Coast", -28.0167, 153.4000, 614_000),
    area("Newcastle", -32.9283, 151.7817, 431_000),
    area("Canberra", -35.2809, 149.1300, 423_000),
    area("Sunshine Coast", -26.6500, 153.0667, 297_000),
    area("Wollongong", -34.4278, 150.8931, 289_000),
    area("Hobart", -42.8821, 147.3272, 217_000),
    area("Geelong", -38.1499, 144.3617, 184_000),
    area("Townsville", -19.2590, 146.8169, 179_000),
    area("Cairns", -16.9186, 145.7781, 147_000),
    area("Darwin", -12.4634, 130.8456, 132_000),
    area("Toowoomba", -27.5598, 151.9507, 114_000),
    area("Ballarat", -37.5622, 143.8503, 99_000),
    area("Bendigo", -36.7570, 144.2794, 92_000),
    area("Albury-Wodonga", -36.0737, 146.9135, 88_000),
    area("Launceston", -41.4332, 147.1441, 86_000),
];

/// The 20 most populated cities of New South Wales — the paper's
/// **state** scale. Search radius: 25 km.
pub const NSW_TOP20: [Area; 20] = [
    area("Sydney", -33.8688, 151.2093, 4_757_000),
    area("Newcastle", -32.9283, 151.7817, 431_000),
    area("Central Coast", -33.4269, 151.3428, 308_000),
    area("Wollongong", -34.4278, 150.8931, 289_000),
    area("Coffs Harbour", -30.2963, 153.1135, 68_000),
    area("Wagga Wagga", -35.1080, 147.3598, 54_000),
    area("Albury", -36.0806, 146.9158, 51_000),
    area("Port Macquarie", -31.4333, 152.9000, 45_000),
    area("Tamworth", -31.0833, 150.9167, 42_000),
    area("Orange", -33.2833, 149.1000, 39_000),
    area("Dubbo", -32.2569, 148.6011, 37_000),
    area("Queanbeyan", -35.3549, 149.2316, 37_000),
    area("Bathurst", -33.4194, 149.5775, 35_000),
    area("Nowra", -34.8833, 150.6000, 34_000),
    area("Lismore", -28.8135, 153.2773, 29_000),
    area("Armidale", -30.5000, 151.6500, 23_000),
    area("Goulburn", -34.7547, 149.6186, 22_000),
    area("Cessnock", -32.8342, 151.3555, 22_000),
    area("Grafton", -29.6833, 152.9333, 19_000),
    area("Griffith", -34.2900, 146.0400, 18_000),
];

/// The 20 most populated Sydney suburbs — the paper's **metropolitan**
/// scale. Search radius: 2 km (sensitivity variant: 0.5 km).
pub const SYDNEY_SUBURBS_TOP20: [Area; 20] = [
    area("Blacktown", -33.7710, 150.9063, 47_000),
    area("Castle Hill", -33.7319, 151.0042, 37_000),
    area("Auburn", -33.8494, 151.0327, 37_000),
    area("Baulkham Hills", -33.7646, 150.9929, 34_000),
    area("Bankstown", -33.9181, 151.0352, 32_000),
    area("Randwick", -33.9167, 151.2411, 30_000),
    area("Maroubra", -33.9500, 151.2430, 29_500),
    area("Liverpool", -33.9200, 150.9239, 27_000),
    area("Marrickville", -33.9111, 151.1549, 26_500),
    area("Parramatta", -33.8150, 151.0010, 26_000),
    area("Dee Why", -33.7529, 151.2854, 21_500),
    area("Hornsby", -33.7049, 151.0997, 21_400),
    area("Chatswood", -33.7969, 151.1831, 21_200),
    area("Cabramatta", -33.8947, 150.9357, 21_100),
    area("Epping", -33.7727, 151.0818, 20_200),
    area("Fairfield", -33.8730, 150.9561, 18_100),
    area("Cronulla", -34.0581, 151.1543, 18_000),
    area("Ryde", -33.8150, 151.1060, 17_000),
    area("Manly", -33.7971, 151.2858, 15_900),
    area("Bondi", -33.8915, 151.2767, 11_700),
];

/// Regional background towns: not part of any study scale, but present in
/// the world so that (a) the Fig. 1 density map shows the real coastal
/// settlement pattern and (b) the Radiation model's intervening-population
/// term `s(i, j)` has genuine structure between the study areas.
pub const BACKGROUND_TOWNS: [Area; 35] = [
    area("Mackay", -21.1411, 149.1860, 81_000),
    area("Rockhampton", -23.3781, 150.5100, 79_000),
    area("Bundaberg", -24.8661, 152.3489, 70_000),
    area("Bunbury", -33.3271, 115.6414, 71_000),
    area("Hervey Bay", -25.2882, 152.8234, 52_000),
    area("Mildura", -34.2080, 142.1246, 50_000),
    area("Shepparton", -36.3833, 145.4000, 49_000),
    area("Gladstone", -23.8489, 151.2625, 45_000),
    area("Mount Gambier", -37.8284, 140.7807, 28_000),
    area("Warrnambool", -38.3818, 142.4880, 34_000),
    area("Traralgon", -38.1957, 146.5408, 25_000),
    area("Kalgoorlie", -30.7489, 121.4658, 31_000),
    area("Geraldton", -28.7774, 114.6150, 36_000),
    area("Albany", -35.0269, 117.8837, 34_000),
    area("Alice Springs", -23.6980, 133.8807, 28_000),
    area("Devonport", -41.1789, 146.3494, 25_000),
    area("Burnie", -41.0520, 145.9030, 20_000),
    area("Wangaratta", -36.3570, 146.3125, 19_000),
    area("Mount Isa", -20.7256, 139.4927, 21_000),
    area("Whyalla", -33.0328, 137.5609, 22_000),
    area("Murray Bridge", -35.1199, 139.2734, 18_000),
    area("Port Lincoln", -34.7323, 135.8588, 16_000),
    area("Port Augusta", -32.4925, 137.7658, 14_000),
    area("Broome", -17.9614, 122.2359, 14_000),
    area("Port Hedland", -20.3109, 118.6011, 15_000),
    area("Karratha", -20.7364, 116.8464, 16_000),
    area("Broken Hill", -31.9539, 141.4539, 19_000),
    area("Gympie", -26.1898, 152.6659, 18_000),
    area("Warwick", -28.2190, 152.0344, 15_000),
    area("Byron Bay", -28.6474, 153.6020, 9_000),
    area("Esperance", -33.8613, 121.8910, 14_000),
    area("Katherine", -14.4652, 132.2635, 10_000),
    area("Emerald", -23.5270, 148.1614, 14_000),
    area("Busselton", -33.6525, 115.3456, 30_000),
    area("Victor Harbor", -35.5504, 138.6216, 14_000),
];

/// Sum of the Sydney suburb census populations (used to derive the
/// uniform scale factor that spreads Sydney's total across them).
fn sydney_suburbs_total() -> u64 {
    SYDNEY_SUBURBS_TOP20.iter().map(|a| a.population).sum()
}

/// A place in the synthetic world: where users live and travel between.
///
/// The world decomposes Sydney into its 20 suburbs plus a residual blob,
/// so one gazetteer serves all three study scales coherently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Place {
    /// Underlying area (name, centre, population share).
    pub area: Area,
    /// Characteristic settlement radius, km — how far homes scatter from
    /// the centre. Scales sub-linearly with population.
    pub radius_km: f64,
}

/// Characteristic settlement radius for a population: ~1.5 km for a
/// 1,000-person town growing as `pop^0.30` (≈ 3.5 km at 20 k, ≈ 19 km at
/// 4.7 M). Homes scatter exponentially with this mean, so a capital
/// keeps most residents within ~40 km of its centre; a wider scatter
/// spills a large share of Melbourne into the 50 km search discs of
/// Geelong (65 km away) and Ballarat (110 km) and drags the national
/// Fig. 3 correlation down.
pub(crate) fn settlement_radius_km(population: u64) -> f64 {
    1.5 * (population.max(1) as f64 / 1_000.0).powf(0.30)
}

/// The full synthetic world: every distinct place a user can be homed in
/// or travel to.
///
/// Sydney never enters as one aggregate node: its whole census
/// population is distributed across the 20 suburbs **proportionally to
/// suburb population** (each suburb's world population is its census
/// population scaled by `Sydney total / Σ suburbs`). A monolithic
/// "rest of Sydney" blob would flood every suburb's 2 km search disc
/// with users uncorrelated to that suburb's size, destroying the
/// metropolitan-scale population signal the paper measures; the uniform
/// scale factor instead is exactly what the paper's rescaling constant
/// `C` absorbs.
pub fn world_places() -> Vec<Place> {
    let mut places: Vec<Area> = Vec::new();
    let mut push_unique = |a: Area| {
        if !places.iter().any(|p| p.name == a.name) {
            places.push(a);
        }
    };
    let sydney_total = NATIONAL_TOP20[0].population;
    let suburb_scale = sydney_total as f64 / sydney_suburbs_total() as f64;
    for a in SYDNEY_SUBURBS_TOP20 {
        push_unique(Area {
            population: (a.population as f64 * suburb_scale).round() as u64,
            ..a
        });
    }
    for a in NATIONAL_TOP20.into_iter().skip(1) {
        push_unique(a);
    }
    for a in NSW_TOP20.into_iter().skip(1) {
        push_unique(a);
    }
    for a in BACKGROUND_TOWNS {
        push_unique(a);
    }
    places
        .into_iter()
        .map(|a| {
            let mut radius = settlement_radius_km(a.population);
            if SYDNEY_SUBURBS_TOP20.iter().any(|s| s.name == a.name) {
                // Suburbs are geographically compact regardless of the
                // population they carry; a wide scatter would bleed
                // users into neighbouring suburbs' search discs.
                radius = radius.min(2.0);
            }
            Place {
                area: a,
                radius_km: radius,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_geo::{haversine_km, AUSTRALIA_BBOX};

    #[test]
    fn scale_lists_have_twenty_areas_each() {
        assert_eq!(NATIONAL_TOP20.len(), 20);
        assert_eq!(NSW_TOP20.len(), 20);
        assert_eq!(SYDNEY_SUBURBS_TOP20.len(), 20);
    }

    #[test]
    fn all_areas_inside_australia_bbox() {
        for a in NATIONAL_TOP20
            .iter()
            .chain(&NSW_TOP20)
            .chain(&SYDNEY_SUBURBS_TOP20)
            .chain(&BACKGROUND_TOWNS)
        {
            assert!(
                AUSTRALIA_BBOX.contains(a.center),
                "{} at {} outside bbox",
                a.name,
                a.center
            );
        }
    }

    #[test]
    fn scale_lists_sorted_by_population_descending() {
        for list in [
            &NATIONAL_TOP20[..],
            &NSW_TOP20[..],
            &SYDNEY_SUBURBS_TOP20[..],
        ] {
            for w in list.windows(2) {
                assert!(
                    w[0].population >= w[1].population,
                    "{} ({}) < {} ({})",
                    w[0].name,
                    w[0].population,
                    w[1].name,
                    w[1].population
                );
            }
        }
    }

    #[test]
    fn names_unique_within_each_list() {
        for list in [
            &NATIONAL_TOP20[..],
            &NSW_TOP20[..],
            &SYDNEY_SUBURBS_TOP20[..],
            &BACKGROUND_TOWNS[..],
        ] {
            let mut names: Vec<&str> = list.iter().map(|a| a.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), list.len());
        }
    }

    #[test]
    fn suburbs_are_within_sydney_metro() {
        let sydney = NATIONAL_TOP20[0].center;
        for s in &SYDNEY_SUBURBS_TOP20 {
            let d = haversine_km(sydney, s.center);
            assert!(d < 40.0, "{} is {d:.0} km from Sydney centre", s.name);
        }
    }

    #[test]
    fn paper_scale_mean_distances_roughly_match() {
        // Paper §III: average inter-area distances 1422 km (national),
        // 341 km (state), 7.5 km (metropolitan). Bands are generous — the
        // gazetteer is approximate, and our suburb list spans the whole
        // Sydney metro (~20 km mean) where the paper's evidently
        // clustered more centrally.
        let mean_dist = |areas: &[Area]| {
            let mut sum = 0.0;
            let mut n = 0u32;
            for i in 0..areas.len() {
                for j in (i + 1)..areas.len() {
                    sum += haversine_km(areas[i].center, areas[j].center);
                    n += 1;
                }
            }
            sum / n as f64
        };
        let national = mean_dist(&NATIONAL_TOP20);
        let state = mean_dist(&NSW_TOP20);
        let metro = mean_dist(&SYDNEY_SUBURBS_TOP20);
        assert!((900.0..2000.0).contains(&national), "national {national}");
        assert!((200.0..500.0).contains(&state), "state {state}");
        assert!((4.0..25.0).contains(&metro), "metro {metro}");
        assert!(national > state && state > metro);
    }

    #[test]
    fn world_places_are_unique_and_cover_scales() {
        let world = world_places();
        let mut names: Vec<&str> = world.iter().map(|p| p.area.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), world.len(), "duplicate place names");
        // Sydney must be decomposed into suburbs, not aggregated.
        assert!(!world.iter().any(|p| p.area.name == "Sydney"));
        // Everything else from the study scales must be present.
        for a in NATIONAL_TOP20
            .iter()
            .skip(1)
            .chain(NSW_TOP20.iter().skip(1))
        {
            assert!(
                world.iter().any(|p| p.area.name == a.name),
                "missing {}",
                a.name
            );
        }
        assert!(world.len() >= 80, "world has {} places", world.len());
    }

    #[test]
    fn world_population_approximates_national_totals() {
        let world = world_places();
        let world_total: u64 = world.iter().map(|p| p.area.population).sum();
        // Should be within the ballpark of the summed gazetteer (~17 M of
        // Australia's 23 M live in the listed places).
        assert!(world_total > 10_000_000 && world_total < 25_000_000);
        // The scaled suburbs reconstruct Sydney's census population.
        let sydney_parts: u64 = world
            .iter()
            .filter(|p| SYDNEY_SUBURBS_TOP20.iter().any(|s| s.name == p.area.name))
            .map(|p| p.area.population)
            .sum();
        let want = NATIONAL_TOP20[0].population;
        assert!(
            (sydney_parts as i64 - want as i64).unsigned_abs() < 100,
            "suburbs carry {sydney_parts}, Sydney census {want}"
        );
        // And each suburb's world population stays proportional to its
        // census population (uniform scale factor).
        let scale = sydney_parts as f64 / sydney_suburbs_total() as f64;
        for s in &SYDNEY_SUBURBS_TOP20 {
            let w = world.iter().find(|p| p.area.name == s.name).unwrap();
            let expect = s.population as f64 * scale;
            assert!((w.area.population as f64 - expect).abs() / expect < 0.01);
        }
    }

    #[test]
    fn settlement_radius_scales_sensibly() {
        assert!(settlement_radius_km(1_000) < 2.0);
        let r20k = settlement_radius_km(20_000);
        assert!((2.0..8.0).contains(&r20k), "20k town radius {r20k}");
        let r5m = settlement_radius_km(4_700_000);
        assert!((15.0..45.0).contains(&r5m), "metro radius {r5m}");
        assert!(settlement_radius_km(0) > 0.0); // degenerate input safe
    }
}
