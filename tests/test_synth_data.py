"""Tests for the synthetic Blue Nile / Zillow generators."""

from repro import synth_data as sd


class TestDiamonds:
    def test_deterministic(self):
        a, b = sd.diamonds_pdf(n=300, seed=5), sd.diamonds_pdf(n=300, seed=5)
        assert a.equals(b)

    def test_seed_changes_data(self):
        assert not sd.diamonds_pdf(n=300, seed=5).equals(sd.diamonds_pdf(n=300, seed=6))

    def test_row_count_and_unique_tid(self):
        pdf = sd.diamonds_pdf(n=500)
        assert len(pdf) == 500
        assert pdf["tid"].is_unique

    def test_lwr_dense_spike_near_20_percent(self):
        """The paper: ~20% of Blue Nile tuples have LengthWidthRatio == 1."""
        pdf = sd.diamonds_pdf(n=4000)
        frac = (pdf["lwr"] == 1.0).mean()
        assert 0.17 <= frac <= 0.23

    def test_price_carat_positive_correlation(self):
        pdf = sd.diamonds_pdf(n=2000)
        assert pdf["price"].corr(pdf["carat"]) > 0.7

    def test_price_has_duplicate_values(self):
        """Whole-dollar prices violate general positioning (section II-B)."""
        pdf = sd.diamonds_pdf(n=4000)
        assert pdf["price"].duplicated().any()

    def test_categorical_domains(self):
        pdf = sd.diamonds_pdf(n=500)
        assert set(pdf["cut"]) <= set(sd.DIAMOND_CUTS)
        assert set(pdf["color"]) <= set(sd.DIAMOND_COLORS)
        assert set(pdf["clarity"]) <= set(sd.DIAMOND_CLARITIES)
        assert set(pdf["shape"]) <= set(sd.DIAMOND_SHAPES)

    def test_value_ranges(self):
        pdf = sd.diamonds_pdf(n=1000)
        assert (pdf["carat"] >= 0.2).all() and (pdf["carat"] <= 10).all()
        assert (pdf["depth"] >= 55).all() and (pdf["depth"] <= 68).all()
        assert (pdf["price"] > 0).all()

    def test_spark_frame_matches_pandas(self, spark):
        pdf = sd.diamonds_pdf(n=200)
        got = sd.diamonds(spark, n=200).toPandas().sort_values("tid").reset_index(drop=True)
        assert got.equals(pdf.sort_values("tid").reset_index(drop=True))


class TestHouses:
    def test_deterministic(self):
        assert sd.houses_pdf(n=300).equals(sd.houses_pdf(n=300))

    def test_price_sqft_positive_correlation(self):
        """The paper's best case relies on price-sqft positive correlation."""
        pdf = sd.houses_pdf(n=2000)
        assert pdf["price"].corr(pdf["sqft"]) > 0.8

    def test_value_ranges(self):
        pdf = sd.houses_pdf(n=1000)
        assert (pdf["price"] >= 4e4).all() and (pdf["price"] <= 4e6).all()
        assert (pdf["sqft"] >= 300).all()
        assert pdf["beds"].between(1, 7).all()
        assert set(pdf["zipcode"]) <= set(sd.HOUSE_ZIPS)

    def test_unique_tid(self):
        assert sd.houses_pdf(n=700)["tid"].is_unique

    def test_spark_frame_matches_pandas(self, spark):
        pdf = sd.houses_pdf(n=200)
        got = sd.houses(spark, n=200).toPandas().sort_values("tid").reset_index(drop=True)
        assert got.equals(pdf.sort_values("tid").reset_index(drop=True))
